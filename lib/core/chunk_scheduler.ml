(* A ranking orders probes by a (primary, secondary) key, smaller first:
   LTF's is the finish time alone, R-LTF's the stage, then the finish
   time.  [State.stage_floor] and [State.finish_floor_above] bound, for
   the (task, copy) being placed, the pipeline stage and the earliest
   instant any admissible source set can finish the candidate's
   execution.  Both are valid for every source-set variant the placement
   branch may try, so a candidate processor whose floor key already loses
   to the incumbent can skip the full timeline probe.  Soundness: each
   component of the floor key is ≤ the corresponding component of the key
   of any probe on that processor, so floor >lex incumbent implies key
   >lex incumbent. *)
type rank = Finish_time | Stage_then_finish

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
   O(m) allocation (and clearing) would dominate the whole chunk phase.
   Heads are sorted by their key, read once per head, then by replica id:
   the order the polymorphic compare of (key, id) pairs gave, without a
   pair built per comparison. *)
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
        let keyed =
          List.filter_map
            (fun (r : Replica.t) ->
              if count.(r.proc) = 1 then
                Some
                  ( Float.max (State.finish state r.id) (State.send_ready state r.proc),
                    r.id )
              else None)
            (Mapping.replicas_of_task mapping pred)
        in
        let sorted =
          List.sort
            (fun (ka, a) (kb, b) ->
              match Float.compare ka kb with 0 -> Replica.compare_id a b | c -> c)
            keyed
          |> List.map snd
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

(* Scratch of one schedule, reused by every placement step: the sweep's
   host marks, the source rows of the variants (greedy or head sources,
   then conservative) and the all-groups floor row of the general
   branch. *)
type scratch = {
  count : int array;
  is_host : bool array;
  rows : int array array;
  groups : int array;
}

(* Strict mode ranks every admitted probe with no penalty. *)
let[@inline] penalty ~strict (p : State.probe) = if strict then 0.0 else p.p_at.penalty

(* Incremental form of the historical pick-best fold: admitted candidates
   are offered in their generation order (ascending processor, then
   variant order), and the incumbent is the winner under (penalty, rank)
   with ties broken by processor index — the same winner the
   materialize-then-fold version selected.  The key is compared one field
   at a time, with the lexicographic [<]/[=] of the tuple it replaces; a
   win swaps the candidate buffer in. *)
let offer ~rank ~strict state =
  let c = State.candidate state and b = State.incumbent state in
  let wins =
    b.p_proc < 0
    ||
    let pc = penalty ~strict c and pb = penalty ~strict b in
    pc < pb
    || pc = pb
       &&
       match rank with
       | Finish_time ->
           c.p_at.finish < b.p_at.finish
           || (c.p_at.finish = b.p_at.finish && c.p_proc < b.p_proc)
       | Stage_then_finish ->
           c.p_stage < b.p_stage
           || c.p_stage = b.p_stage
              && (c.p_at.finish < b.p_at.finish
                 || (c.p_at.finish = b.p_at.finish && c.p_proc < b.p_proc))
  in
  if wins then State.swap state

(* A candidate processor can be skipped without probing when the incumbent
   carries no overload penalty (so any candidate's penalty, ≥ 0, cannot
   beat it) and the floor key already loses: it is component-wise ≤ the
   key of every probe on that processor, so floor >lex incumbent implies
   key >lex incumbent, and the strict inequality also rules out the
   processor-index tie-break.  The floors are only computed when the
   incumbent makes a prune possible, and the finish floor (a processor
   timeline scan) only when the stage floor does not decide. *)
let prune ~rank ~strict state proc =
  let b = State.incumbent state in
  b.p_proc >= 0
  && penalty ~strict b = 0.0
  &&
  match rank with
  | Finish_time -> State.finish_floor_above state ~proc
  | Stage_then_finish ->
      let stage_lb = State.stage_floor state ~proc in
      stage_lb > b.p_stage
      || (stage_lb = b.p_stage && State.finish_floor_above state ~proc)

(* Hosts of the admissible sources, probed ahead of the main sweep: a
   co-located placement pays no transfer, so it usually sets a strong
   zero-penalty incumbent that lets the bound discard most of the
   remaining sweep.  The selected probe is order-independent — the winner
   is the minimum under ((penalty, rank), processor index), which no
   traversal permutation changes.  Both passes run in ascending processor
   order.  [is_host] is a caller-owned scratch array of length n_procs,
   all false between sweeps. *)
let sweep ~is_host state consider =
  State.iter_hosts state (fun p -> is_host.(p) <- true);
  Array.iteri (fun p host -> if host then consider p) is_host;
  Array.iteri (fun p host -> if not host then consider p) is_host;
  State.iter_hosts state (fun p -> is_host.(p) <- false)

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
let consider_variant ~strict ~rank ~tally state ~proc row =
  State.transfers state ~proc row;
  State.admission state;
  let c = State.candidate state in
  if not c.p_feasible then tally.rejections <- tally.rejections + 1;
  if c.p_feasible || not strict then begin
    let b = State.incumbent state in
    if b.p_proc >= 0 && penalty ~strict c > penalty ~strict b then
      tally.prunes <- tally.prunes + 1
    else begin
      tally.probes <- tally.probes + 1;
      State.evaluate state;
      offer ~rank ~strict state
    end
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
   processor outside the claim is a candidate, hosts of the [floor] row's
   sources first; each source-set variant the branch offers on it
   ([variants proc] fills that many of [sc.rows]) is judged, and the best
   probe is committed and its kill set added to the claim.  A branch
   offers only variants whose kill set it admits.  Every variant draws at
   least one replica per predecessor from the [floor] row, so its floors
   bound them all. *)
let place ~(mode : Sched_api.mode) ~rank ~sc state ct ~copy ~floor ~variants =
  let task = ct.ct_task in
  let strict = match mode with Strict -> true | Best_effort -> false in
  State.start_step state ~task ~copy;
  State.set_floor state floor;
  let tally = tally () in
  let consider proc =
    if not (Bitset.mem proc ct.ct_claimed) then begin
      if prune ~rank ~strict state proc then tally.prunes <- tally.prunes + 1
      else
        for v = 0 to variants proc - 1 do
          consider_variant ~strict ~rank ~tally state ~proc sc.rows.(v)
        done
    end
  in
  sweep ~is_host:sc.is_host state consider;
  report tally;
  if (State.incumbent state).p_proc < 0 then false
  else begin
    State.commit state;
    ct.ct_claimed <-
      Bitset.union ct.ct_claimed (State.support state { Replica.task; copy });
    true
  end

(* Algorithm 4.2: map one replica so that each head replica of every
   predecessor feeds exactly this replica, with a kill set within the lane
   budget.  A head is only usable while its kill set stays disjoint from
   the processors already claimed by sibling replicas and leaves room in
   the budget; stale heads are dropped lazily.  Every source is a single
   head, so the kill set on [proc] is {proc} ∪ S, S the union of the
   heads' kill sets, computed once.  The head row is both the one variant
   and the floor. *)
let one_to_one ~(opts : Sched_api.options) ~rank ~sc ~budget state ct ~copy =
  Obs.incr "core.one_to_one_calls";
  let usable (id : Replica.id) =
    let s = State.support state id in
    Bitset.disjoint s ct.ct_claimed && Bitset.cardinal s < budget
  in
  List.iter (fun (_, ids) -> ids := List.filter usable !ids) ct.ct_heads;
  if List.exists (fun (_, ids) -> List.is_empty !ids) ct.ct_heads then false
  else begin
    let heads = sc.rows.(0) in
    List.iteri (fun k (_, ids) -> heads.(k) <- State.slot state (List.hd !ids)) ct.ct_heads;
    let heads_kill =
      List.fold_left
        (fun acc (_, ids) ->
          Bitset.union acc (State.support state (List.hd !ids)))
        Bitset.empty ct.ct_heads
    in
    let n_heads_kill = Bitset.cardinal heads_kill in
    let variants proc =
      let kill = n_heads_kill + if Bitset.mem proc heads_kill then 0 else 1 in
      if kill > budget then 0 else 1
    in
    let placed =
      place ~mode:opts.mode ~rank ~sc state ct ~copy ~floor:heads ~variants
    in
    if placed then begin
      List.iter (fun (_, ids) -> ids := List.tl !ids) ct.ct_heads;
      ct.ct_z <- ct.ct_z + 1
    end;
    placed
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
   and exempt from the disjointness requirement.  Every variant is
   admissible as built: its kill set is the candidate, outside the claim,
   plus the kill sets of its sole sources, each disjoint from the claim
   (a full group adds nothing, or, at ε = 0, meets an empty claim), so
   it is never tested against the claim.  [State.general_rows] fills the
   rows in place, per candidate. *)
let general ~(opts : Sched_api.options) ~rank ~sc ~budget state ct ~copy =
  Obs.incr "core.general_calls";
  let variants proc =
    State.general_rows state opts.source_policy ~claimed:ct.ct_claimed ~budget
      ~proc sc.rows
  in
  place ~mode:opts.mode ~rank ~sc state ct ~copy ~floor:sc.groups ~variants

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
  let m = Platform.size plat in
  let max_preds =
    let d = ref 0 in
    Dag.iter_tasks dag (fun t -> d := max !d (Dag.in_degree dag t));
    !d
  in
  let sc =
    {
      count = Array.make m 0;
      is_host = Array.make m false;
      rows = Array.init 2 (fun _ -> Array.make max_preds (-1));
      groups = Array.make max_preds (-1);
    }
  in
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
          take chunk_bound [] |> List.map (singleton_data state sc.count)
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
                    && one_to_one ~opts ~rank ~sc ~budget state ct ~copy:n)
                    || general ~opts ~rank ~sc ~budget state ct ~copy:n
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
