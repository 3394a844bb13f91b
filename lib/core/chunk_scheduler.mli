(** The chunked list-scheduling skeleton shared by LTF and R-LTF
    (Algorithm 4.1 of the paper, with Algorithm 4.2 as its inner
    procedure).

    At each step the scheduler selects a chunk [β] of up to [B = m] ready
    tasks of highest priority ([tℓ + bℓ] on platform-averaged weights) and
    places the [ε + 1] replicas of each, iterating copy-major as in the
    paper (copy [N] of every chunk task, then copy [N+1], ...).  While a
    task still has singleton predecessor replicas available ([Z_k < θ_k]),
    replicas are placed by the one-to-one mapping procedure — each selected
    head replica feeds exactly this replica — otherwise by the general rule
    where the replica receives from all [ε + 1] replicas of every
    predecessor.

    Both branches run one placement step.  Its candidates are the
    processors outside the task's claim, the union of the kill sets of
    its placed replicas: §4's locked processors, narrowed to those whose
    failure kills a sibling.  A processor that only feeds a sibling as
    part of a full replica group stays a candidate, which is the paper's
    "we use other processors" without weakening fault tolerance.  Hosts
    of the admissible source replicas are visited first.  On each
    candidate the branch offers only source-set variants whose kill set
    it admits: the one-to-one branch offers the head sources when their
    kill set (the candidate plus the union of the heads' kill sets) fits
    the lane budget; the general branch offers its greedy and
    conservative variants ({!State.general_rows}), which are always admissible
    — each is built from sole sources whose kill sets are disjoint from
    the claim and from full groups, which kill nothing alone, so its kill
    set (those plus the candidate, itself outside the claim) is disjoint
    from the claim by construction.  An offered variant must meet
    condition (1) in strict mode and is ranked by its overload penalty
    first in best-effort mode; it is then probed, and the best probe is
    committed and its kill set added to the claim.  When the one-to-one
    step places nothing the general step runs; when that places nothing
    either, the schedule fails, as LTF does in the worked example of
    §4.3.

    A variant is a {!State} source row, one int per predecessor, filled
    in place in a scratch row per candidate; candidates are judged in the
    state's probe buffers, and a winner is swapped in as the incumbent.
    Past its per-placement set-up (the floor sources, the sweep's
    closures, the committed source list), a placement step allocates
    nothing per candidate.

    Candidate ranking is a parameter: LTF minimizes the estimated finish
    time [F]; R-LTF minimizes the pipeline stage first (Rule 1) and the
    finish time second.

    Configuration lives in the one canonical {!Sched_api.options} record
    (re-exported by [Scheduler]); this module defines only the engine.

    When {!Obs.enabled} is on, a run records the counters
    [core.placement_probes], [core.probe_prunes],
    [core.feasibility_rejections],
    [core.one_to_one_calls], [core.general_calls], [core.commits] and
    [core.chunks], the histogram [core.chunk_size], and the per-chunk span
    [core.scheduler.chunk] into the calling domain's registry.  The
    instrumentation is purely observational: results are bit-identical
    whether it is on or off. *)

type rank =
  | Finish_time
      (** LTF's policy: the smallest estimated finish time [F]. *)
  | Stage_then_finish
      (** R-LTF's Rule 1 policy: the smallest pipeline stage, then the
          smallest [F]. *)
(** How a placement step ranks its admitted probes, smaller first, with
    ties broken by processor index.  Before a candidate processor is
    probed, its {!State.stage_floor} and {!State.finish_floor_above} are
    ranked the same way: a candidate whose floors already lose to a
    zero-overload incumbent is skipped without probing the timelines —
    the selected probe is identical, only the probe count changes. *)

val schedule :
  ?opts:Sched_api.options ->
  rank:rank ->
  Types.problem ->
  (State.t, Types.failure) result
(** Schedule every task of the problem's DAG.  On success the returned
    state holds a complete mapping. *)
