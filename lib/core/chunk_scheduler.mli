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

    Processor eligibility follows §4: a candidate must not be locked for
    the task (hosting one of its replicas, or involved in a communication
    with one) and must satisfy the throughput condition (1).  When no
    unlocked processor is feasible, the general branch may fall back to
    communication-locked processors that are provably safe for the
    ε-failure guarantee (never those hosting a replica of the task, nor
    those that are the sole source of a placed replica); this implements
    the paper's "we use other processors" escape hatch without
    compromising fault tolerance.  If even the fallback finds no
    processor, the algorithm fails, as LTF does in the worked example of
    §4.3.

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

type rank = {
  score : State.t -> State.trial -> float * float;
      (** Smaller is better, compared lexicographically; ties broken by
          processor index. *)
  bound : stage_lb:int -> finish_lb:float -> float * float;
      (** A component-wise lower bound on [score] for any trial of the
          (task, copy) being placed on a candidate processor, given the
          {!State.floors} on its pipeline stage and on its finish time
          (the processor timeline's earliest fit after the earliest
          source data readiness, plus the execution time).  Candidates
          whose bound already loses lexicographically to a zero-overload
          incumbent are skipped without probing the timelines — the
          selected trial is identical, only the probe count changes. *)
}

val by_finish_time : rank
(** LTF's policy: score [(F, 0)], bound [(finish_lb, 0)]. *)

val by_stage_then_finish : rank
(** R-LTF's Rule 1 policy: score [(stage, F)], bound
    [(stage_lb, finish_lb)]. *)

val schedule :
  ?opts:Sched_api.options ->
  rank:rank ->
  Types.problem ->
  (State.t, Types.failure) result
(** Schedule every task of the problem's DAG.  On success the returned
    state holds a complete mapping. *)
