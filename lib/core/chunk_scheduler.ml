(* A ranking is a score plus a cheap lower bound on that score.  The bound
   receives, for the (task, copy) being placed, the earliest instant any
   admissible source set can deliver data ([finish_lb] already includes the
   candidate's execution time) and a floor on the pipeline stage; both are
   valid for every source-set variant the placement branch may try, so a
   candidate processor whose bound already loses to the incumbent can skip
   the full timeline probe.  Soundness: each component of [bound] is ≤ the
   corresponding component of [score] of any trial on that processor, so
   [bound >lex incumbent] implies [score >lex incumbent]. *)
type rank = {
  score : State.t -> State.trial -> float * float;
  bound : stage_lb:int -> finish_lb:float -> float * float;
}

let by_finish_time : rank =
  {
    score = (fun _ trial -> (trial.State.t_finish, 0.0));
    bound = (fun ~stage_lb:_ ~finish_lb -> (finish_lb, 0.0));
  }

let by_stage_then_finish : rank =
  {
    score =
      (fun _ trial -> (float_of_int trial.State.t_stage, trial.State.t_finish));
    bound = (fun ~stage_lb ~finish_lb -> (float_of_int stage_lb, finish_lb));
  }

(* Per-chunk-task working data.  [ct_claimed] is the union of the kill
   sets of the already-placed replicas of the task: the locking discipline
   of §4 ("locked" processors) generalized transitively — a new replica may
   neither be placed on, nor sole-source (directly or transitively)
   through, a processor whose failure already kills a sibling replica.
   Keeping the replicas' kill sets pairwise disjoint is what guarantees
   that no ε failures can silence all ε+1 of them. *)
type chunk_task = {
  ct_task : Dag.task;
  mutable ct_z : int;
  ct_theta : int;
  mutable ct_claimed : State.Pset.t;
  ct_heads : (Dag.task * Replica.id list ref) list;
      (* per predecessor: remaining singleton replicas, sorted by the
         one-to-one communication-readiness key *)
}

let record_placement state ct (trial : State.trial) =
  ct.ct_claimed <-
    State.Pset.union ct.ct_claimed
      (State.support_of_sources state ~proc:trial.State.t_proc
         ~sources:trial.State.t_sources)

(* [count] is a caller-owned scratch array of length n_procs, zeroed on
   entry and re-zeroed before returning: at a million tasks the per-task
   O(m) allocation (and clearing) would dominate the whole chunk phase. *)
let singleton_data state count task =
  let prob = State.problem state in
  let dag = prob.Types.dag in
  let mapping = State.mapping state in
  let preds = List.map fst (Dag.preds dag task) in
  List.iter
    (fun pred ->
      List.iter
        (fun (r : Replica.t) -> count.(r.proc) <- count.(r.proc) + 1)
        (Mapping.replicas_of_task mapping pred))
    preds;
  let heads =
    List.map
      (fun pred ->
        let on_singletons =
          Mapping.replicas_of_task mapping pred
          |> List.filter (fun (r : Replica.t) -> count.(r.proc) = 1)
          |> List.map (fun (r : Replica.t) -> (r.id, r.proc))
        in
        let key (id, proc) =
          (Float.max (State.finish state id) (State.send_ready state proc), id)
        in
        let sorted =
          List.sort (fun a b -> compare (key a) (key b)) on_singletons
          |> List.map fst
        in
        (pred, ref sorted))
      preds
  in
  let theta =
    match heads with
    | [] -> prob.Types.eps + 1 (* entry task: no communications to pair up *)
    | _ ->
        List.fold_left
          (fun acc (_, ids) -> min acc (List.length !ids))
          max_int heads
  in
  List.iter
    (fun pred ->
      List.iter
        (fun (r : Replica.t) -> count.(r.proc) <- 0)
        (Mapping.replicas_of_task mapping pred))
    preds;
  { ct_task = task; ct_z = 0; ct_theta = theta; ct_claimed = State.Pset.empty;
    ct_heads = heads }

(* The incumbent of a placement step: the best trial offered so far and
   its selection key (penalty, then the rank score). *)
type incumbent = {
  i_penalty : float;
  i_primary : float;
  i_secondary : float;
  i_trial : State.trial;
}

(* Incremental form of the historical pick-best fold: [offer] feeds
   admitted trials in their generation order (ascending processor, then
   variant order), keeping the winner under (penalty, rank) with ties
   broken by processor index — the same winner the materialize-then-fold
   version selected.  The key is compared one float at a time, with the
   lexicographic [<]/[=] of the tuple it replaces. *)
let offer ~rank state best ~penalty trial =
  let primary, secondary = rank.score state trial in
  let wins =
    match !best with
    | None -> true
    | Some b ->
        penalty < b.i_penalty
        || penalty = b.i_penalty
           && (primary < b.i_primary
              || primary = b.i_primary
                 && (secondary < b.i_secondary
                    || secondary = b.i_secondary
                       && trial.State.t_proc < b.i_trial.State.t_proc))
  in
  if wins then
    best :=
      Some
        { i_penalty = penalty; i_primary = primary; i_secondary = secondary;
          i_trial = trial }

(* A candidate processor can be skipped without probing when the incumbent
   carries no overload penalty (so any candidate's penalty, ≥ 0, cannot
   beat it) and the rank lower bound already loses: the bound is
   component-wise ≤ the true score of every trial on that processor, so
   bound >lex incumbent implies score >lex incumbent, and the strict
   inequality also rules out the processor-index tie-break.  The floors
   cost a processor-timeline scan, so they are only computed when the
   incumbent makes a prune possible. *)
let prune ~rank state best floor_data proc =
  match !best with
  | Some b when b.i_penalty = 0.0 ->
      let stage_lb, finish_lb = State.floors state floor_data ~proc in
      let primary, secondary = rank.bound ~stage_lb ~finish_lb in
      primary > b.i_primary
      || (primary = b.i_primary && secondary > b.i_secondary)
  | _ -> false

(* Hosts of the admissible sources, probed ahead of the main sweep: a
   co-located placement pays no transfer, so it usually sets a strong
   zero-penalty incumbent that lets the bound discard most of the
   remaining sweep.  The selected trial is order-independent — the winner
   is the minimum under ((penalty, rank), processor index), which no
   traversal permutation changes. *)
let source_hosts mapping sources =
  List.sort_uniq Int.compare
    (List.concat_map
       (fun (_, ids) ->
         List.map
           (fun (id : Replica.id) ->
             (Mapping.replica_exn mapping id.task id.copy).Replica.proc)
           ids)
       sources)

(* One placement's pruned candidates and condition-(1) rejections,
   reported with one [Obs.incr] each when the placement ends: at
   m = 10³ an [Obs.incr] per candidate would hash its key millions of
   times. *)
type tally = { mutable prunes : int; mutable rejections : int }

let report tally =
  if tally.prunes > 0 then Obs.incr ~by:tally.prunes "core.probe_prunes";
  if tally.rejections > 0 then
    Obs.incr ~by:tally.rejections "core.feasibility_rejections"

(* Judge one source-set variant of a candidate processor and offer it.
   Condition (1) and the overload penalty come from the transfer list
   before any timeline probe: in strict mode an infeasible variant is
   rejected, in best-effort mode it survives (ranked by its penalty) but
   still counts as a rejection for the profile, and a penalty strictly
   above the incumbent's already loses the selection. *)
let consider_variant ~(mode : Sched_api.mode) ~rank ~tally state best ~task
    ~copy ~proc ~sources =
  let transfers = State.transfers state ~task ~proc ~sources in
  let (adm : State.admission) = State.admission state ~task ~proc transfers in
  if not adm.feasible then tally.rejections <- tally.rejections + 1;
  let probe penalty =
    match !best with
    | Some b when penalty > b.i_penalty -> tally.prunes <- tally.prunes + 1
    | _ ->
        offer ~rank state best ~penalty
          (State.evaluate state ~task ~copy ~proc ~sources ~transfers)
  in
  match mode with
  | Strict -> if adm.feasible then probe 0.0
  | Best_effort -> probe adm.penalty

(* Each replica may sole-source (transitively) through at most a "lane" of
   [m / (ε+1)] processors: the kill sets of the ε+1 replicas of a task must
   be pairwise disjoint subsets of the m processors, so unbounded chains
   leave no room for the remaining siblings.  When the budget runs out, the
   full-replica-group fallback resets the chain (no single failure can
   silence a full group). *)
let lane_budget ~(opts : Sched_api.options) prob =
  let m = Platform.size prob.Types.platform in
  max 1
    (int_of_float
       (Float.round
          (opts.lane_budget_factor *. float_of_int m
          /. float_of_int (prob.Types.eps + 1))))

(* Algorithm 4.2: map one replica so that each head replica of every
   predecessor feeds exactly this replica.  A head is only usable while its
   kill set stays disjoint from the processors already claimed by sibling
   replicas and small enough to fit the lane budget; stale heads are
   dropped lazily. *)
let one_to_one ~(opts : Sched_api.options) ~rank ~procs state ct ~copy =
  Obs.incr "core.one_to_one_calls";
  let mode = opts.mode in
  let prob = State.problem state in
  let budget = lane_budget ~opts prob in
  let usable (id : Replica.id) =
    let s = State.support state id in
    State.Pset.disjoint s ct.ct_claimed && State.Pset.cardinal s < budget
  in
  List.iter (fun (_, ids) -> ids := List.filter usable !ids) ct.ct_heads;
  if List.exists (fun (_, ids) -> !ids = []) ct.ct_heads then None
  else begin
    let sources =
      List.map (fun (pred, ids) -> (pred, [ List.hd !ids ])) ct.ct_heads
    in
    let floor_data = State.floor_data state ~task:ct.ct_task sources in
    let best = ref None in
    let tally = { prunes = 0; rejections = 0 } in
    let consider proc =
      if not (State.Pset.mem proc ct.ct_claimed) then begin
        if prune ~rank state best floor_data proc then
          tally.prunes <- tally.prunes + 1
        else begin
          let kill = State.support_of_sources state ~proc ~sources in
          if State.Pset.cardinal kill <= budget then
            consider_variant ~mode ~rank ~tally state best ~task:ct.ct_task
              ~copy ~proc ~sources
        end
      end
    in
    let hosts = source_hosts (State.mapping state) sources in
    List.iter consider hosts;
    List.iter (fun p -> if not (List.mem p hosts) then consider p) procs;
    report tally;
    match !best with
    | None -> None
    | Some { i_trial = trial; _ } ->
        State.commit state trial;
        record_placement state ct trial;
        List.iter (fun (_, ids) -> ids := List.tl !ids) ct.ct_heads;
        Some trial
  end

(* General branch: the replica receives, for each predecessor, either from
   a co-located predecessor replica whose kill set is still unclaimed (a
   single comm-free source), or from the cheapest remote replica with an
   unclaimed kill set (a single message), or from all replicas of the
   predecessor (heavy on communication, but immune to single failures).
   Two source-set variants are tried per candidate processor — the greedy
   single-source one and the conservative local-or-full one — because
   claiming long kill chains can paint later siblings into a corner while
   full groups keep them free.  A kill chain through the candidate
   processor itself is harmless (the replica dies with its host anyway)
   and is exempt from the disjointness requirement. *)
let general ~(opts : Sched_api.options) ~rank ~procs state ct ~copy =
  Obs.incr "core.general_calls";
  let mode = opts.mode in
  let prob = State.problem state in
  let mapping = State.mapping state in
  let plat = prob.Types.platform in
  let pred_replicas =
    List.map
      (fun (pred, vol) -> (pred, vol, Mapping.replicas_of_task mapping pred))
      (Dag.preds prob.Types.dag ct.ct_task)
  in
  let budget = lane_budget ~opts prob in
  let variants_on proc =
    let others = State.Pset.remove proc ct.ct_claimed in
    let disjoint (r : Replica.t) =
      State.Pset.disjoint (State.support state r.id) others
    in
    (* Greedy variant: fold over the predecessors accumulating the kill
       set, sole-sourcing only while the lane budget allows and preferring
       the source that grows the chain least, then the cheapest transfer. *)
    let greedy =
      let acc = ref (State.Pset.singleton proc) in
      List.map
        (fun (pred, vol, replicas) ->
          let full =
            (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas)
          in
          let fits (r : Replica.t) =
            State.Pset.cardinal
              (State.Pset.union !acc (State.support state r.id))
            <= budget
          in
          let candidates =
            List.filter (fun r -> disjoint r && fits r) replicas
            |> List.map (fun (r : Replica.t) ->
                   let growth =
                     State.Pset.cardinal
                       (State.Pset.diff (State.support state r.id) !acc)
                   in
                   let comm =
                     if r.proc = proc then 0.0
                     else Platform.comm_time plat r.proc proc vol
                   in
                   ((growth, comm), r))
            |> List.sort (fun (ka, (ra : Replica.t)) (kb, rb) ->
                   match compare ka kb with
                   | 0 -> Replica.compare_id ra.id rb.Replica.id
                   | c -> c)
          in
          match candidates with
          | (_, r) :: _ ->
              acc := State.Pset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | [] -> full)
        pred_replicas
    in
    (* Conservative variant: local sole source when free, else the full
       group; keeps the claim small for later siblings. *)
    let conservative =
      let acc = ref (State.Pset.singleton proc) in
      List.map
        (fun (pred, _, replicas) ->
          let local =
            List.find_opt
              (fun (r : Replica.t) ->
                r.proc = proc && disjoint r
                && State.Pset.cardinal
                     (State.Pset.union !acc (State.support state r.id))
                   <= budget)
              replicas
          in
          match local with
          | Some r ->
              acc := State.Pset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | None ->
              (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas))
        pred_replicas
    in
    match opts.source_policy with
    | Greedy_only -> [ greedy ]
    | Conservative_only -> [ conservative ]
    | Both_variants ->
        if greedy = conservative then [ greedy ] else [ greedy; conservative ]
  in
  (* Every source-set variant draws at least one replica per predecessor. *)
  let all_sources =
    List.map
      (fun (pred, _, replicas) ->
        (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas))
      pred_replicas
  in
  let floor_data = State.floor_data state ~task:ct.ct_task all_sources in
  let best = ref None in
  let tally = { prunes = 0; rejections = 0 } in
  let consider proc =
    if not (State.Pset.mem proc ct.ct_claimed) then begin
      if prune ~rank state best floor_data proc then
        tally.prunes <- tally.prunes + 1
      else
        List.iter
          (fun sources ->
            let kill_set = State.support_of_sources state ~proc ~sources in
            if
              State.Pset.disjoint
                (State.Pset.remove proc kill_set)
                ct.ct_claimed
            then
              consider_variant ~mode ~rank ~tally state best ~task:ct.ct_task
                ~copy ~proc ~sources)
          (variants_on proc)
    end
  in
  let hosts = source_hosts mapping all_sources in
  List.iter consider hosts;
  List.iter (fun p -> if not (List.mem p hosts) then consider p) procs;
  report tally;
  match !best with
  | None -> None
  | Some { i_trial = trial; _ } ->
      State.commit state trial;
      record_placement state ct trial;
      Some trial

let schedule ?(opts = Sched_api.default) ~rank (prob : Types.problem) =
  Obs.touch "core.placement_probes";
  Obs.touch "core.probe_prunes";
  Obs.touch "core.feasibility_rejections";
  Obs.touch "core.one_to_one_calls";
  Obs.touch "core.general_calls";
  Obs.touch "core.commits";
  Obs.touch "core.chunks";
  let dag = prob.Types.dag and plat = prob.Types.platform in
  let state = State.create prob in
  let priority = Levels.priority dag (Metrics.paper_weights dag plat) in
  let procs = Platform.procs plat in
  let count_scratch = Array.make (Platform.size plat) 0 in
  let higher a b =
    if priority.(a) <> priority.(b) then compare priority.(b) priority.(a)
    else compare a b
  in
  let module Tset = Set.Make (struct
    type t = Dag.task

    let compare = higher
  end) in
  let ready = ref Tset.empty in
  List.iter (fun t -> ready := Tset.add t !ready) (Dag.entries dag);
  let n_pending_preds = Array.init (Dag.size dag) (Dag.in_degree dag) in
  let chunk_bound = Platform.size plat in
  let failure = ref None in
  let unscheduled = ref (Dag.size dag) in
  while !failure = None && not (Tset.is_empty !ready) do
    Obs.with_span "core.scheduler.chunk" (fun () ->
        (* Select the chunk β of highest-priority ready tasks. *)
        let rec take k acc =
          if k = 0 || Tset.is_empty !ready then List.rev acc
          else begin
            let t = Tset.min_elt !ready in
            ready := Tset.remove t !ready;
            take (k - 1) (t :: acc)
          end
        in
        let beta =
          take chunk_bound [] |> List.map (singleton_data state count_scratch)
        in
        Obs.incr "core.chunks";
        Obs.observe "core.chunk_size" (float_of_int (List.length beta));
        (* Copy-major placement, as in Algorithm 4.1. *)
        let rec copies n =
          if n <= prob.Types.eps && !failure = None then begin
            List.iter
              (fun ct ->
                if !failure = None then begin
                  let placed =
                    if opts.use_one_to_one && ct.ct_z < ct.ct_theta then begin
                      match one_to_one ~opts ~rank ~procs state ct ~copy:n with
                      | Some _ ->
                          ct.ct_z <- ct.ct_z + 1;
                          true
                      | None ->
                          Option.is_some
                            (general ~opts ~rank ~procs state ct ~copy:n)
                    end
                    else
                      Option.is_some
                        (general ~opts ~rank ~procs state ct ~copy:n)
                  in
                  if not placed then
                    failure := Some (Types.No_feasible_processor (ct.ct_task, n))
                end)
              beta;
            copies (n + 1)
          end
        in
        copies 0;
        if !failure = None then
          List.iter
            (fun ct ->
              unscheduled := !unscheduled - 1;
              List.iter
                (fun (succ, _) ->
                  n_pending_preds.(succ) <- n_pending_preds.(succ) - 1;
                  if n_pending_preds.(succ) = 0 then ready := Tset.add succ !ready)
                (Dag.succs dag ct.ct_task))
            beta)
  done;
  match !failure with
  | Some f -> Error f
  | None ->
      assert (!unscheduled = 0);
      Ok state
