let reverse_problem (prob : Types.problem) =
  Types.problem ~dag:(Dag.reverse prob.dag) ~platform:prob.platform
    ~eps:prob.eps ~throughput:prob.throughput

let schedule_state ?opts prob =
  Obs.with_span "core.rltf.run" (fun () ->
      Chunk_scheduler.schedule ?opts ~rank:Chunk_scheduler.Stage_then_finish
        (reverse_problem prob))

(* The bottom-up run fixes where every replica lives; the forward
   communication structure is then re-derived under the forward support
   discipline (see {!Source_derivation}), which keeps the kill sets of each
   task's replicas pairwise disjoint — the reverse-direction pairing would
   not by itself bound the forward kill chains. *)
let rec names task copy = function
  | [] -> false
  | (src : Replica.id) :: rest ->
      (src.task = task && src.copy = copy) || names task copy rest

let forward_mapping (prob : Types.problem) rmapping =
  Obs.with_span "core.rltf.derive" (fun () ->
      (* The reverse-run source set of a replica r_p (of task p) lists, for
         its reverse predecessor t (= forward successor), the t-replicas it
         pairs with; transposed, r_p is a preferred forward source for
         exactly those t-replicas. *)
      let hint task copy (rp : Replica.id) =
        names task copy
          (Replica.sources_for
             (Mapping.replica_exn rmapping rp.Replica.task rp.Replica.copy)
             task)
      in
      Source_derivation.derive ~throughput:prob.throughput ~hint ~dag:prob.dag
        ~platform:prob.platform ~eps:prob.eps
        ~proc_of:(fun task copy ->
          (Mapping.replica_exn rmapping task copy).Replica.proc)
        ())

let schedule ?(opts = Sched_api.default) prob =
  match schedule_state ~opts prob with
  | Error e -> Error e
  | Ok state -> (
      let mapping = forward_mapping prob (State.mapping state) in
      (* The reverse run enforced condition (1) on its own pairing; the
         forward derivation may need extra transfers for fault tolerance.
         In strict mode an overloaded result is an honest failure.  The
         loads are computed once and shared between the throughput check
         and the worst-processor scan. *)
      match opts.Sched_api.mode with
      | Sched_api.Best_effort -> Ok mapping
      | Sched_api.Strict ->
          let loads = Loads.of_mapping mapping in
          if
            Metrics.meets_throughput ~loads mapping
              ~throughput:prob.Types.throughput
          then Ok mapping
          else begin
            let worst = ref 0 in
            Array.iteri
              (fun u _ ->
                if Loads.cycle_time loads u > Loads.cycle_time loads !worst then
                  worst := u)
              loads.Loads.sigma;
            Error
              (Types.Derived_overload (!worst, Loads.cycle_time loads !worst))
          end)

module Algo = struct
  let name = "R-LTF"

  let run ?opts prob = schedule ?opts prob
end

let algo : (module Sched_api.Algo) = (module Algo)
