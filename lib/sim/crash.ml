type source =
  | Of_mapping of Mapping.t
  | Of_program of Engine.program
  | Of_stages of { plan : Replica_graph.t; throughput : float }

type method_ =
  | Fixed of Platform.proc list
  | Sampled of { crashes : int; draws : int; rng : Rng.t }
  | Exact of { crashes : int; max_evaluations : int option }

type estimate = {
  est_crashes : int;
  est_draws : int;
  est_evaluations : int;
  est_defeated : int;
  est_p_defeat : float;
  est_mean : float option;
  est_failed : Platform.proc list;
}

(* ---- the latency models ------------------------------------------------ *)

(* A source resolved to its latency model.  Both read one replica graph:
   the engine's is the one [Engine.compile] built the program from. *)
type model =
  | Engine_model of Engine.program
  | Stage_model of { plan : Replica_graph.t; throughput : float }

let model_of = function
  | Of_mapping m -> Engine_model (Program_cache.program m)
  | Of_program p -> Engine_model p
  | Of_stages { plan; throughput } -> Stage_model { plan; throughput }

let graph_of = function
  | Engine_model p -> Engine.program_graph p
  | Stage_model { plan; _ } -> plan

(* One closed item with the message log off: the engine's crash draw. *)
let replay_config = Engine.Run.without_messages (Engine.Run.closed ())

(* [engine_replay p ()] allocates one worker's arena and returns the
   replay of a failure set through it. *)
let engine_replay p () =
  let state = Engine.Run_state.create p in
  fun failed ->
    (Engine.simulate ~state ~config:{ replay_config with failed } p)
      .item_latency.(0)

(* The replay of a set the cut predicate says survives.  The predicate and
   the engine apply one liveness rule, so a defeat here is a bug in one of
   them — never a draw to count as defeated. *)
let survivor_replay p () =
  let replay = engine_replay p () in
  fun failed ->
    match replay failed with
    | Some latency -> latency
    | None ->
        failwith
          (Printf.sprintf
             "Crash.estimate: the engine defeated failure set {%s}, which \
              Replica_graph.depth says survives"
             (String.concat ", " (List.map string_of_int failed)))

let predicate_defeats graph failed = Replica_graph.depth ~failed graph = None

(* ---- shared internals -------------------------------------------------- *)

let draw_distinct rng ~count ~bound =
  let rec pick chosen remaining =
    if remaining = 0 then List.rev chosen
    else begin
      let candidate = Rng.int rng bound in
      if List.mem candidate chosen then pick chosen remaining
      else pick (candidate :: chosen) (remaining - 1)
    end
  in
  pick [] count

let int_binom n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let r = ref 1 in
    for i = 1 to k do
      r := !r * (n - k + i) / i
    done;
    !r
  end

(* Every one of the choose (m, c) failure sets evaluated: the exact
   analogue of the sampled mean under the model's own latency semantics,
   with the enumeration count as the only cost knob.  Returns
   (evaluations, defeated, survivors' latency sum, survivors). *)
let enumerate ?(max_evaluations = 1_000_000) ~n_procs ~crashes evaluate =
  let total = int_binom n_procs crashes in
  if total > max_evaluations then
    invalid_arg "Crash.estimate: exact enumeration over budget";
  let sum = ref 0.0 and survivors = ref 0 and defeated = ref 0 in
  (* next processor to pick >= [from]; [chosen] in decreasing order *)
  let rec go chosen from remaining =
    if remaining = 0 then begin
      match evaluate (List.rev chosen) with
      | Some l ->
          sum := !sum +. l;
          incr survivors
      | None -> incr defeated
    end
    else
      for u = from to n_procs - remaining do
        go (u :: chosen) (u + 1) (remaining - 1)
      done
  in
  go [] 0 crashes;
  (total, !defeated, !sum, !survivors)

(* Draws are folded in fixed-size chunks: each chunk's sum starts at 0.0
   and the chunk sums are folded in chunk-index order.  The chunking is a
   function of the draw count alone — never of the worker count or of
   which draws were replayed — so the float-addition order (and therefore
   the estimate, bitwise) is the same at every [jobs]. *)
let chunk_size = 32

(* [fresh ()] applied once per chunk-sized slice of [xs], the slices
   fanned out over the domains: the per-worker scratch (an engine arena)
   is allocated once per slice.  Each element is evaluated under a
   [sim.crash.sample] span. *)
let map_chunks ~jobs fresh xs =
  let n = Array.length xs in
  Parallel.map_seeded ~jobs
    (fun lo ->
      let evaluate = fresh () in
      Array.init (min chunk_size (n - lo)) (fun k ->
          Obs.with_span "sim.crash.sample" (fun () -> evaluate xs.(lo + k))))
    (List.init ((n + chunk_size - 1) / chunk_size) (fun ci -> ci * chunk_size))
  |> Array.concat

(* Failure sets keyed by their canonical packed form, so a set drawn in
   any order finds its one replay. *)
module Set_table = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Hashtbl.hash
end)

(* The latency of every draw, [None] when it defeats the mapping.  Stage
   draws are evaluated directly.  Engine draws are judged by the cut
   predicate first; each distinct surviving set is then replayed once and
   its latency shared by every draw of that set. *)
let draw_latencies ~jobs model sets =
  match model with
  | Stage_model { plan; throughput } ->
      map_chunks ~jobs
        (fun () failed ->
          Stage_latency.latency_of_plan ~failed plan ~throughput)
        sets
  | Engine_model p ->
      let graph = Engine.program_graph p in
      let index = Set_table.create 64 and distinct = ref [] in
      let slot =
        Array.map
          (fun failed ->
            if predicate_defeats graph failed then -1
            else begin
              let key = Bitset.of_list failed in
              match Set_table.find_opt index key with
              | Some s -> s
              | None ->
                  let s = Set_table.length index in
                  Set_table.add index key s;
                  distinct := failed :: !distinct;
                  s
            end)
          sets
      in
      let replayed =
        map_chunks ~jobs (survivor_replay p)
          (Array.of_list (List.rev !distinct))
      in
      Array.map (fun s -> if s < 0 then None else Some replayed.(s)) slot

let fold_chunks latencies =
  let n = Array.length latencies in
  let total = ref 0.0 and count = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let chunk = ref 0.0 in
    for i = !lo to min n (!lo + chunk_size) - 1 do
      match latencies.(i) with
      | Some l ->
          chunk := !chunk +. l;
          incr count
      | None -> ()
    done;
    total := !total +. !chunk;
    lo := !lo + chunk_size
  done;
  (!total, !count)

let mean_of total count =
  if count = 0 then None else Some (total /. float_of_int count)

let validate ~n_procs = function
  | Fixed failed ->
      if List.exists (fun u -> u < 0 || u >= n_procs) failed then
        invalid_arg "Crash.estimate: failed processor outside [0, m)"
  | Sampled { crashes; draws; _ } ->
      if crashes < 0 || crashes > n_procs then
        invalid_arg "Crash.estimate: crash count outside [0, m]";
      if draws < 0 then invalid_arg "Crash.estimate: negative draw count"
  | Exact { crashes; _ } ->
      if crashes < 0 || crashes > n_procs then
        invalid_arg "Crash.estimate: crash count outside [0, m]"

(* ---- the one entry point ---------------------------------------------- *)

let estimate ?(jobs = 1) ~source ~method_ () =
  let model = model_of source in
  let graph = graph_of model in
  let n_procs = graph.Replica_graph.procs in
  validate ~n_procs method_;
  match method_ with
  | Fixed failed ->
      (* Always a plain replay, never short-circuited by the predicate:
         the engine oracle the tests compare the predicate against. *)
      let latency =
        match model with
        | Engine_model p -> engine_replay p () failed
        | Stage_model { plan; throughput } ->
            Stage_latency.latency_of_plan ~failed plan ~throughput
      in
      let defeated = latency = None in
      {
        est_crashes = List.length failed;
        est_draws = 0;
        est_evaluations = 1;
        est_defeated = (if defeated then 1 else 0);
        est_p_defeat = (if defeated then 1.0 else 0.0);
        est_mean = latency;
        est_failed = failed;
      }
  | Sampled { crashes; draws; rng } ->
      (* One child generator per draw: draw [i]'s failure set depends
         only on the caller's seed and [i] (common random numbers), so
         growing [draws] extends the draw sequence without disturbing its
         prefix. *)
      let sets =
        Array.init draws (fun _ ->
            draw_distinct (Rng.split rng) ~count:crashes ~bound:n_procs)
      in
      let latencies = draw_latencies ~jobs model sets in
      Array.iter
        (fun latency ->
          Obs.incr "sim.crash.draws";
          Obs.touch "sim.crash.defeats";
          if Option.is_none latency then Obs.incr "sim.crash.defeats")
        latencies;
      let total, count = fold_chunks latencies in
      let defeated = draws - count in
      {
        est_crashes = crashes;
        est_draws = draws;
        est_evaluations = draws;
        est_defeated = defeated;
        est_p_defeat =
          (if draws = 0 then nan
           else float_of_int defeated /. float_of_int draws);
        est_mean = mean_of total count;
        est_failed = (if draws = 0 then [] else sets.(draws - 1));
      }
  | Exact { crashes; max_evaluations } ->
      Obs.with_span "sim.crash.exact" (fun () ->
          match model with
          | Stage_model { plan; throughput } ->
              (* Fully analytic: the cut-set calculus answers both the
                 defeat probability and the conditional mean of
                 (2 S_eff - 1)/T, with the cut horizon pinned to the crash
                 count so families stay small.  Nothing is replayed. *)
              let t =
                Reliability.analyze ~max_cut_card:crashes
                  plan.Replica_graph.mapping
              in
              let uniform = Reliability.Uniform_crashes crashes in
              {
                est_crashes = crashes;
                est_draws = 0;
                est_evaluations = 0;
                est_defeated = 0;
                est_p_defeat = Reliability.defeat_probability t uniform;
                est_mean = Reliability.expected_latency t ~throughput uniform;
                est_failed = [];
              }
          | Engine_model p ->
              (* The predicate settles defeated sets; only survivors are
                 replayed, in enumeration order through one arena. *)
              let replay = survivor_replay p () in
              let total, defeated, sum, survivors =
                enumerate ?max_evaluations ~n_procs ~crashes (fun failed ->
                    if predicate_defeats graph failed then None
                    else Some (replay failed))
              in
              {
                est_crashes = crashes;
                est_draws = 0;
                est_evaluations = total;
                est_defeated = defeated;
                est_p_defeat = float_of_int defeated /. float_of_int total;
                est_mean = mean_of sum survivors;
                est_failed = [];
              })
