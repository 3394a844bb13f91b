type error =
  | Not_enough_processors
  | No_room of Dag.task * int

let pp_error ppf = function
  | Not_enough_processors ->
      Format.fprintf ppf
        "fewer surviving processors than the replication degree requires"
  | No_room (task, copy) ->
      Format.fprintf ppf "no surviving processor can host replica t%d(%d)" task
        copy

let error_to_string e = Format.asprintf "%a" pp_error e

(* Mirror of Metrics.meets_throughput's slack: re-placement must not turn
   a mapping that was exactly at the bound into a rejection. *)
let tolerance = 1e-9

(* [id] is among the sources [sources] lists for its own task. *)
let rec listed (id : Replica.id) = function
  | [] -> false
  | (pred, ids) :: rest ->
      if pred = id.Replica.task then List.mem id ids else listed id rest

let restore ?throughput m ~failed =
  let dag = Mapping.dag m and plat = Mapping.platform m in
  let eps = Mapping.eps m in
  let n_procs = Platform.size plat in
  let is_failed = Array.make n_procs false in
  List.iter (fun p -> is_failed.(p) <- true) failed;
  let n_survivors = ref 0 in
  Array.iter (fun f -> if not f then incr n_survivors) is_failed;
  if !n_survivors < eps + 1 then Error Not_enough_processors
  else begin
    (* New processor of every replica: survivors stay, casualties move to
       the least-loaded eligible survivor.  Loads are tracked in execution
       time so fast processors absorb more. *)
    let load = Array.make n_procs 0.0 in
    let proc_table = Array.make_matrix (Dag.size dag) (eps + 1) (-1) in
    Mapping.iter m (fun (r : Replica.t) ->
        if not is_failed.(r.Replica.proc) then begin
          proc_table.(r.Replica.id.Replica.task).(r.Replica.id.Replica.copy) <-
            r.Replica.proc;
          load.(r.Replica.proc) <-
            load.(r.Replica.proc)
            +. Platform.exec_time plat r.Replica.proc
                 (Dag.exec dag r.Replica.id.Replica.task)
        end);
    let place_failure = ref None in
    Mapping.iter m (fun (r : Replica.t) ->
        if is_failed.(r.Replica.proc) && !place_failure = None then begin
          let task = r.Replica.id.Replica.task in
          let siblings = proc_table.(task) in
          (* A survivor is eligible when it hosts no sibling and — under a
             throughput bound — when absorbing the replica's execution
             load keeps its cycle time within the period (the execution
             part of condition (1); the derived communications are checked
             by the caller).  Without the bound any sibling-free survivor
             qualifies, which is the degraded-mode relaxation the recovery
             policy falls back to. *)
          let fits p =
            match throughput with
            | None -> true
            | Some t ->
                (load.(p) +. Platform.exec_time plat p (Dag.exec dag task))
                *. t
                <= 1.0 +. tolerance
          in
          (* The least-loaded eligible survivor, the lowest on ties. *)
          let best = ref (-1) in
          for p = 0 to n_procs - 1 do
            if
              (not is_failed.(p))
              && (not (Array.mem p siblings))
              && fits p
              && (!best < 0 || not (load.(!best) <= load.(p)))
            then best := p
          done;
          if !best < 0 then
            place_failure := Some (task, r.Replica.id.Replica.copy)
          else begin
            let p = !best in
            proc_table.(task).(r.Replica.id.Replica.copy) <- p;
            load.(p) <-
              load.(p) +. Platform.exec_time plat p (Dag.exec dag task)
          end
        end);
    match !place_failure with
    | Some (task, copy) -> Error (No_room (task, copy))
    | None ->
        (* Re-derive the whole communication structure; the original source
           sets are offered as hints so surviving pairings are kept where
           they remain safe. *)
        let hint task copy (s : Replica.id) =
          match Mapping.replica m task copy with
          | Some r ->
              listed s r.Replica.sources
              && proc_table.(s.task).(s.copy) >= 0
              && not
                   (is_failed.((Mapping.replica_exn m s.task s.copy)
                                 .Replica.proc))
          | None -> false
        in
        Ok
          (Source_derivation.derive ?throughput ~hint ~dag ~platform:plat ~eps
             ~proc_of:(fun task copy -> proc_table.(task).(copy))
             ())
  end
