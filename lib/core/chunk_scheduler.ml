(* A ranking orders trials by a (primary, secondary) key, smaller first;
   [State.stage_floor] and [State.finish_floor] give, for the (task, copy) being
   placed, a floor on the pipeline stage and the earliest instant any
   admissible source set can finish the candidate's execution.  Both are
   valid for every source-set variant the placement branch may try, so a
   candidate processor whose floor key already loses to the incumbent can
   skip the full timeline probe.  Soundness: each component of the floor
   key is ≤ the corresponding component of the key of any trial on that
   processor, so floor >lex incumbent implies key >lex incumbent. *)
type rank = Finish_time | Stage_then_finish

let primary rank (trial : State.trial) =
  match rank with
  | Finish_time -> trial.t_finish
  | Stage_then_finish -> float_of_int trial.t_stage

let secondary rank (trial : State.trial) =
  match rank with Finish_time -> 0.0 | Stage_then_finish -> trial.t_finish

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
  mutable ct_claimed : Bitset.t;
  ct_heads : (Dag.task * Replica.id list ref) list;
      (* per predecessor: remaining singleton replicas, sorted by the
         one-to-one communication-readiness key *)
}

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
  { ct_task = task; ct_z = 0; ct_theta = theta; ct_claimed = Bitset.empty;
    ct_heads = heads }

(* The incumbent of a placement step: the best trial offered so far and
   its selection key (penalty, then the rank key). *)
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
let offer ~rank best ~penalty (trial : State.trial) =
  let primary = primary rank trial and secondary = secondary rank trial in
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
                       && trial.t_proc < b.i_trial.State.t_proc))
  in
  if wins then
    best :=
      Some
        { i_penalty = penalty; i_primary = primary; i_secondary = secondary;
          i_trial = trial }

(* A candidate processor can be skipped without probing when the incumbent
   carries no overload penalty (so any candidate's penalty, ≥ 0, cannot
   beat it) and the floor key already loses: it is component-wise ≤ the
   key of every trial on that processor, so floor >lex incumbent implies
   key >lex incumbent, and the strict inequality also rules out the
   processor-index tie-break.  The floors are only computed when the
   incumbent makes a prune possible, and the finish floor (a processor
   timeline scan) only when the stage floor does not decide. *)
let prune ~rank state best floor_data proc =
  match !best with
  | Some b when b.i_penalty = 0.0 -> (
      match rank with
      | Finish_time -> State.finish_floor state floor_data ~proc > b.i_primary
      | Stage_then_finish ->
          let stage_lb = float_of_int (State.stage_floor floor_data ~proc) in
          stage_lb > b.i_primary
          || stage_lb = b.i_primary
             && State.finish_floor state floor_data ~proc > b.i_secondary)
  | _ -> false

(* Hosts of the admissible sources, probed ahead of the main sweep: a
   co-located placement pays no transfer, so it usually sets a strong
   zero-penalty incumbent that lets the bound discard most of the
   remaining sweep.  The selected trial is order-independent — the winner
   is the minimum under ((penalty, rank), processor index), which no
   traversal permutation changes.  Both passes run in ascending processor
   order.  [is_host] is a caller-owned scratch array of length n_procs,
   all false between sweeps. *)
let sweep ~is_host floor_data consider =
  State.iter_hosts floor_data (fun p -> is_host.(p) <- true);
  Array.iteri (fun p host -> if host then consider p) is_host;
  Array.iteri (fun p host -> if not host then consider p) is_host;
  State.iter_hosts floor_data (fun p -> is_host.(p) <- false)

(* One placement's probes, pruned candidates and condition-(1)
   rejections, reported with one [Obs.incr] each when the placement ends:
   at m = 10³ an [Obs.incr] per candidate would hash its key millions of
   times. *)
type tally = {
  mutable probes : int;
  mutable prunes : int;
  mutable rejections : int;
}

let tally () = { probes = 0; prunes = 0; rejections = 0 }

let report tally =
  if tally.probes > 0 then Obs.incr ~by:tally.probes "core.placement_probes";
  if tally.prunes > 0 then Obs.incr ~by:tally.prunes "core.probe_prunes";
  if tally.rejections > 0 then
    Obs.incr ~by:tally.rejections "core.feasibility_rejections"

(* Judge one source-set variant of a candidate processor and offer it.
   Condition (1) and the overload penalty come from the transfers before
   any timeline probe: in strict mode an infeasible variant is rejected,
   in best-effort mode it survives (ranked by its penalty) but still
   counts as a rejection for the profile, and a penalty strictly above
   the incumbent's already loses the selection. *)
let consider_variant ~(mode : Sched_api.mode) ~rank ~tally state best ~task
    ~copy ~proc ~sources =
  let transfers = State.transfers state ~task ~proc ~sources in
  let (adm : State.admission) = State.admission state ~task ~proc transfers in
  if not adm.feasible then tally.rejections <- tally.rejections + 1;
  let admitted = match mode with Strict -> adm.feasible | Best_effort -> true
  and penalty = match mode with Strict -> 0.0 | Best_effort -> adm.penalty in
  if admitted then begin
    match !best with
    | Some b when penalty > b.i_penalty -> tally.prunes <- tally.prunes + 1
    | _ ->
        tally.probes <- tally.probes + 1;
        offer ~rank best ~penalty
          (State.evaluate state ~task ~copy ~proc ~sources ~transfers)
  end

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

(* The placement step of Algorithm 4.1, shared by both branches: every
   processor outside the claim is a candidate, hosts of [floor_sources]
   first; each source-set variant the branch offers on it ([variants]) is
   judged, and the best trial is committed and its kill set added to the
   claim.  A branch offers only variants whose kill set it admits.  Every
   variant draws at least one replica per predecessor from
   [floor_sources], so its floors bound them all. *)
let place ~mode ~rank ~is_host state ct ~copy ~floor_sources ~variants =
  let task = ct.ct_task in
  let floor_data = State.floor_data state ~task floor_sources in
  let best = ref None and tally = tally () in
  let consider proc =
    if not (Bitset.mem proc ct.ct_claimed) then begin
      if prune ~rank state best floor_data proc then
        tally.prunes <- tally.prunes + 1
      else
        List.iter
          (fun sources ->
            consider_variant ~mode ~rank ~tally state best ~task ~copy ~proc
              ~sources)
          (variants proc)
    end
  in
  sweep ~is_host floor_data consider;
  report tally;
  match !best with
  | None -> false
  | Some { i_trial = trial; _ } ->
      State.commit state trial;
      ct.ct_claimed <-
        Bitset.union ct.ct_claimed (State.support state { Replica.task; copy });
      true

(* Algorithm 4.2: map one replica so that each head replica of every
   predecessor feeds exactly this replica, with a kill set within the lane
   budget.  A head is only usable while its kill set stays disjoint from
   the processors already claimed by sibling replicas and leaves room in
   the budget; stale heads are dropped lazily.  Every source is a single
   head, so the kill set on [proc] is {proc} ∪ S, S the union of the
   heads' kill sets, computed once. *)
let one_to_one ~(opts : Sched_api.options) ~rank ~is_host ~budget state ct
    ~copy =
  Obs.incr "core.one_to_one_calls";
  let usable (id : Replica.id) =
    let s = State.support state id in
    Bitset.disjoint s ct.ct_claimed && Bitset.cardinal s < budget
  in
  List.iter (fun (_, ids) -> ids := List.filter usable !ids) ct.ct_heads;
  if List.exists (fun (_, ids) -> List.is_empty !ids) ct.ct_heads then false
  else begin
    let sources =
      List.map (fun (pred, ids) -> (pred, [ List.hd !ids ])) ct.ct_heads
    in
    let heads_kill =
      List.fold_left
        (fun acc (_, ids) ->
          Bitset.union acc (State.support state (List.hd !ids)))
        Bitset.empty ct.ct_heads
    in
    let n_heads_kill = Bitset.cardinal heads_kill in
    let offered = [ sources ] in
    let variants proc =
      let kill = n_heads_kill + if Bitset.mem proc heads_kill then 0 else 1 in
      if kill > budget then [] else offered
    in
    let placed =
      place ~mode:opts.mode ~rank ~is_host state ct ~copy ~floor_sources:sources
        ~variants
    in
    if placed then begin
      List.iter (fun (_, ids) -> ids := List.tl !ids) ct.ct_heads;
      ct.ct_z <- ct.ct_z + 1
    end;
    placed
  end

(* Whether two source-set lists name the same replicas, compared
   monomorphically. *)
let same_sources a b =
  List.equal
    (fun (p, xs) (q, ys) ->
      Int.equal p q
      && List.equal
           (fun (x : Replica.id) (y : Replica.id) ->
             Int.equal x.task y.task && Int.equal x.copy y.copy)
           xs ys)
    a b

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
   and exempt from the disjointness requirement.  Every variant is
   admissible as built: its kill set is the candidate, outside the claim,
   plus the kill sets of its sole sources, each disjoint from the claim
   (a full group adds nothing, or, at ε = 0, meets an empty claim), so
   it is never tested against the claim. *)
let general ~(opts : Sched_api.options) ~rank ~is_host ~budget state ct
    ~copy =
  Obs.incr "core.general_calls";
  let prob = State.problem state in
  let mapping = State.mapping state in
  let plat = prob.Types.platform in
  let pred_replicas =
    List.map
      (fun (pred, vol) ->
        let replicas = Mapping.replicas_of_task mapping pred in
        let full = List.map (fun (r : Replica.t) -> r.Replica.id) replicas in
        (pred, vol, replicas, full))
      (Dag.preds prob.Types.dag ct.ct_task)
  in
  let unclaimed (r : Replica.t) =
    Bitset.disjoint (State.support state r.id) ct.ct_claimed
  in
  let variants_on proc =
    (* Greedy variant: fold over the predecessors accumulating the kill
       set, sole-sourcing only while the lane budget allows and preferring
       the source that grows the chain least, then the cheapest transfer. *)
    let greedy =
      let acc = ref (Bitset.singleton proc) in
      List.map
        (fun (pred, vol, replicas, full) ->
          let room = budget - Bitset.cardinal !acc in
          (* Ties on growth and transfer time go to the smallest id. *)
          let pick = ref None and pick_growth = ref 0 and pick_comm = ref 0.0 in
          List.iter
            (fun (r : Replica.t) ->
              if unclaimed r then begin
                let growth =
                  Bitset.diff_cardinal (State.support state r.id) !acc
                in
                if growth <= room then begin
                  let comm =
                    if r.proc = proc then 0.0
                    else Platform.comm_time plat r.proc proc vol
                  in
                  let better =
                    match !pick with
                    | None -> true
                    | Some (p : Replica.t) ->
                        growth < !pick_growth
                        || growth = !pick_growth
                           && (comm < !pick_comm
                              || comm = !pick_comm
                                 && Replica.compare_id r.id p.id < 0)
                  in
                  if better then begin
                    pick := Some r;
                    pick_growth := growth;
                    pick_comm := comm
                  end
                end
              end)
            replicas;
          match !pick with
          | Some r ->
              acc := Bitset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | None -> (pred, full))
        pred_replicas
    in
    (* Conservative variant: local sole source when free, else the full
       group; keeps the claim small for later siblings. *)
    let conservative =
      let acc = ref (Bitset.singleton proc) in
      List.map
        (fun (pred, _, replicas, full) ->
          let room = budget - Bitset.cardinal !acc in
          let local =
            List.find_opt
              (fun (r : Replica.t) ->
                r.proc = proc && unclaimed r
                && Bitset.diff_cardinal (State.support state r.id) !acc <= room)
              replicas
          in
          match local with
          | Some r ->
              acc := Bitset.union !acc (State.support state r.id);
              (pred, [ r.Replica.id ])
          | None -> (pred, full))
        pred_replicas
    in
    match opts.source_policy with
    | Greedy_only -> [ greedy ]
    | Conservative_only -> [ conservative ]
    | Both_variants ->
        if same_sources greedy conservative then [ greedy ]
        else [ greedy; conservative ]
  in
  place ~mode:opts.mode ~rank ~is_host state ct ~copy
    ~floor_sources:
      (List.map (fun (pred, _, _, full) -> (pred, full)) pred_replicas)
    ~variants:variants_on

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
  let count_scratch = Array.make (Platform.size plat) 0 in
  let is_host = Array.make (Platform.size plat) false in
  let budget = lane_budget ~opts prob in
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
                    (opts.use_one_to_one && ct.ct_z < ct.ct_theta
                    && one_to_one ~opts ~rank ~is_host ~budget state ct ~copy:n)
                    || general ~opts ~rank ~is_host ~budget state ct ~copy:n
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
