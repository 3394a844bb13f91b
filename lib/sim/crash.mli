(** Crash experiments (§5): latency of a schedule when [c] processors fail.

    The paper evaluates each schedule by "computing the real execution time
    for a given schedule rather than just bounds", with the failing
    processors "chosen uniformly from the range [1, 20]".  This module
    answers that question behind one entry point, {!estimate}, for either
    of the repo's two latency models:
    - the event-driven {!Engine} (one-port contention, real transfer
      times), reached through an [Of_mapping] or [Of_program] source;
    - the stage model of {!Stage_latency} ([(2·S_eff − 1)/T]), reached
      through an [Of_stages] source.

    A {!method_} picks the failure sets — a fixed set, Monte-Carlo
    sampling, or the exact expectation over every set — and one
    {!estimate} record carries the result. *)

(** {2 The one estimation entry point} *)

(** What to evaluate, and under which latency model: a mapping
    (compiled internally, once) or a program the caller already compiled
    run through the event engine, or a compiled stage-model plan at a
    given throughput — the compile-once-replay-per-draw discipline made
    explicit instead of doubling every function into a [_compiled]
    sibling. *)
type source =
  | Of_mapping of Mapping.t
  | Of_program of Engine.program
  | Of_stages of { plan : Replica_graph.t; throughput : float }

(** How to evaluate it. *)
type method_ =
  | Fixed of Platform.proc list
      (** one deterministic replay with exactly these processors failed.
          Never short-circuited: an engine source always runs the engine,
          even when the cut predicate could answer, so [Fixed] stays the
          independent oracle the predicate is tested against. *)
  | Sampled of { crashes : int; draws : int; rng : Rng.t }
      (** [draws] independent uniform draws of [crashes] distinct
          processors, replayed through the source's model.  [rng] is consumed
          only to {!Rng.split} one child generator per draw, up front:
          draw [i] depends on the caller's seed and [i] alone (common
          random numbers), so growing [draws] extends the sequence
          without disturbing its prefix, and the draws parallelize.
          Each draw counts once in [sim.crash.draws], and once in
          [sim.crash.defeats] when it defeats the mapping.  A
          [sim.crash.sample] span wraps each evaluation: one stage-model
          draw, or one engine replay of a distinct surviving set. *)
  | Exact of { crashes : int; max_evaluations : int option }
      (** the exact expectation over all [choose (m, crashes)] failure
          sets, under a [sim.crash.exact] span.  Engine sources
          enumerate every set in {!Subsets.iter} order, refused up
          front when [Subsets.binom m crashes] exceeds [max_evaluations]
          (default 1_000_000): a float binomial saturates, so no crash
          count wraps past the budget.  The cut predicate settles the
          defeated sets and only the survivors are replayed.
          [Of_stages] answers through the {!Reliability} calculus
          instead, replays nothing and ignores [max_evaluations]. *)

type estimate = {
  est_crashes : int;  (** failure-set cardinality of the method *)
  est_draws : int;
      (** random draws consumed: [Sampled] draws; [0] for [Fixed] /
          [Exact] (deterministic) *)
  est_evaluations : int;
      (** failure sets evaluated — [Sampled] draws, [Exact] sets, [1]
          for [Fixed]; [0] for [Of_stages] under [Exact].  Not a count
          of engine replays, which skip defeated and repeated sets. *)
  est_defeated : int;  (** evaluations that defeated the schedule *)
  est_p_defeat : float;
      (** defeat probability: exact under [Exact], the Monte-Carlo
          estimate [est_defeated / est_draws] under [Sampled], and 0 or 1
          under [Fixed].  NaN policy: with [draws = 0] there is no
          estimate and this is [nan] rather than [0.0] — a zero would
          silently read as "never defeated"; [nan] propagates through
          downstream means and plots as a gap instead of a lie.  The
          all-defeated case is well-defined: [1.0] with [est_mean = None]. *)
  est_mean : float option;
      (** mean latency over the surviving evaluations; [None] when every
          evaluation was defeated (or none ran) *)
  est_failed : Platform.proc list;
      (** the failure set of the last evaluation — the [Fixed] set, the
          last [Sampled] draw, or [[]] under [Exact] (no single set) *)
}

val estimate :
  ?jobs:int ->
  source:source ->
  method_:method_ ->
  unit ->
  estimate
(** Evaluate [source] under [method_].  [Of_mapping] compiles at most
    once — through the shared {!Program_cache}, so repeated estimates on
    the same mapping content skip even that; pass [Of_program] to hold
    the program yourself.

    An engine-source [Sampled] estimate works in three steps.  It draws
    every failure set from the per-draw seeds; it decides defeat per
    draw with the cut predicate (one {!Replica_graph.evaluator} on the
    program's graph returning [None], reused over every draw); and it replays each {e distinct} surviving
    set once, through one reusable {!Engine.Run_state} arena per
    worker, fanned out across domains.  The per-draw latencies are then
    folded in fixed 32-draw chunks in draw order.  [Of_stages] draws
    evaluate the plan directly, fanned out the same way, and need no
    arena.  [?jobs] (default 1) spawns a {!Domain_pool} of that size for
    the call.  The estimate is {e bit-identical} at every
    worker count: draws use per-draw child seeds and the chunked sums
    merge in draw order, so parallelism changes wall-clock, never the
    result.  [Fixed] and [Exact] ignore [jobs] (a [Fixed] replay is one
    run; [Exact] enumerates sequentially through one arena).

    Inputs are checked up front, for every source, before anything runs.
    @raise Invalid_argument (naming [Crash.estimate]) if the mapping is
    incomplete, a [Fixed] processor is outside [0, m), [crashes] is
    outside [0, m] (even with [draws = 0]), [draws < 0], or an engine
    [Exact] enumeration exceeds its [max_evaluations] budget.
    @raise Failure (naming [Crash.estimate]) if the engine defeats a
    failure set the cut predicate says survives — the two disagree on
    the liveness rule, which is a bug, never a defeat to count. *)
