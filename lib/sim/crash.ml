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

(* A source resolved to its latency model: the mapping it evaluates and a
   per-worker replay of one failure set.  [replayer ()] allocates the
   worker's scratch — an engine arena, nothing for the stage model — so a
   draw loop calls it once and replays through the result. *)
type model = {
  mapping : Mapping.t;
  replayer : unit -> Platform.proc list -> float option;
}

(* One closed item with the message log off: the engine's crash draw. *)
let replay_config = Engine.Run.without_messages (Engine.Run.closed ())

let engine_model p =
  {
    mapping = Engine.program_mapping p;
    replayer =
      (fun () ->
        let state = Engine.Run_state.create p in
        fun failed ->
          (Engine.simulate ~state ~config:{ replay_config with failed } p)
            .item_latency.(0));
  }

let model_of = function
  | Of_mapping m -> engine_model (Program_cache.program m)
  | Of_program p -> engine_model p
  | Of_stages { plan; throughput } ->
      {
        mapping = plan.Replica_graph.mapping;
        replayer =
          (fun () failed ->
            Stage_latency.latency_of_plan ~failed plan ~throughput);
      }

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

(* Every one of the choose (m, c) failure sets replayed: the exact
   analogue of the sampled mean under the model's own latency semantics,
   with the enumeration count as the only cost knob.  Returns
   (evaluations, defeated, survivors' latency sum, survivors). *)
let enumerate ?(max_evaluations = 1_000_000) ~n_procs ~crashes replay =
  let total = int_binom n_procs crashes in
  if total > max_evaluations then
    invalid_arg "Crash.estimate: exact enumeration over budget";
  let sum = ref 0.0 and survivors = ref 0 and defeated = ref 0 in
  (* next processor to pick >= [from]; [chosen] in decreasing order *)
  let rec go chosen from remaining =
    if remaining = 0 then begin
      match replay (List.rev chosen) with
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

(* Draws are processed in fixed-size chunks whose partial sums are folded
   in chunk-index order.  The chunking is a function of the draw count
   alone — never of the worker count — so the float-addition order (and
   therefore the estimate, bitwise) is the same at every [jobs], and
   [jobs = 1] takes the very same fold. *)
let chunk_size = 32

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

let estimate ?pool ?(jobs = 1) ~source ~method_ () =
  let model = model_of source in
  let n_procs = Platform.size (Mapping.platform model.mapping) in
  validate ~n_procs method_;
  match method_ with
  | Fixed failed ->
      let latency = model.replayer () failed in
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
      (* One child generator per draw, split off up front: draw [i]'s
         failure set depends only on the caller's seed and [i] (common
         random numbers), so growing [draws] extends the draw sequence
         without disturbing its prefix, and workers need no shared RNG. *)
      let seeds = Array.init draws (fun _ -> Rng.split rng) in
      let n_chunks = (draws + chunk_size - 1) / chunk_size in
      let run_chunk ci =
        let replay = model.replayer () in
        let lo = ci * chunk_size in
        let hi = min draws (lo + chunk_size) in
        let total = ref 0.0 and count = ref 0 and defeated = ref 0 in
        let last = ref [] in
        for i = lo to hi - 1 do
          Obs.with_span "sim.crash.sample" (fun () ->
              Obs.incr "sim.crash.draws";
              Obs.touch "sim.crash.defeats";
              let failed =
                draw_distinct seeds.(i) ~count:crashes ~bound:n_procs
              in
              (match replay failed with
              | Some l ->
                  total := !total +. l;
                  incr count
              | None ->
                  Obs.incr "sim.crash.defeats";
                  incr defeated);
              last := failed)
        done;
        (!total, !count, !defeated, !last)
      in
      let partials =
        Parallel.map_seeded ?pool ~jobs run_chunk (List.init n_chunks Fun.id)
      in
      let total, count, defeated, last =
        List.fold_left
          (fun (t, c, d, _) (t', c', d', l') -> (t +. t', c + c', d + d', l'))
          (0.0, 0, 0, []) partials
      in
      {
        est_crashes = crashes;
        est_draws = draws;
        est_evaluations = draws;
        est_defeated = defeated;
        est_p_defeat =
          (if draws = 0 then nan
           else float_of_int defeated /. float_of_int draws);
        est_mean = mean_of total count;
        est_failed = last;
      }
  | Exact { crashes; max_evaluations } ->
      Obs.with_span "sim.crash.exact" (fun () ->
          match source with
          | Of_stages { throughput; _ } ->
              (* Fully analytic: the cut-set calculus answers both the
                 defeat probability and the conditional mean of
                 (2 S_eff - 1)/T, with the cut horizon pinned to the crash
                 count so families stay small.  Nothing is replayed. *)
              let t = Reliability.analyze ~max_cut_card:crashes model.mapping in
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
          | Of_mapping _ | Of_program _ ->
              let total, defeated, sum, survivors =
                enumerate ?max_evaluations ~n_procs ~crashes (model.replayer ())
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
