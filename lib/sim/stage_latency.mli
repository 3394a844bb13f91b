(** Stage-synchronous "real execution" latency (§5).

    In the steady-state pipelined execution, every stage consumes one
    period for computation and one period per processor change for
    communication, so a data item's latency is [(2·S_eff − 1)/T] where
    [S_eff] is the effective pipeline depth of the item's path to the
    exits.  The paper's upper bound uses the worst replica stage [S]
    (waiting for the slowest source of every replica); the "real execution
    time for a given schedule" lets every replica proceed with the {e
    first} available input per predecessor and takes, for each exit task,
    the {e earliest} surviving replica — which is what this module
    computes, with an optional fail-silent failure set.

    Failures can only increase the result: surviving replicas may be
    forced to wait for later-stage sources, and the earliest exit replica
    may be lost.

    Crash statistics over this model (sampled draws, or the exact
    {!Reliability} calculus) come from [Crash.estimate] with an
    [Of_stages] source. *)

val latency_of_plan :
  ?failed:Platform.proc list -> Replica_graph.t -> throughput:float ->
  float option
(** [(2·S_eff − 1) / T] ({!Metrics.latency_of_depth}) against a compiled
    replica graph (a {e plan}, built once per mapping and replayed per
    failure draw), where [S_eff] is [Replica_graph.depth ?failed plan];
    [None] when the failure set defeats the schedule.
    @raise Invalid_argument when a processor in [failed] is out of
    range (the check of [Replica_graph.depth]). *)

val plans : Replica_graph.t Program_cache.t
(** The global stage-latency plan cache (capacity 64), used by the
    figure harness ([Fig_common]) — the stage-model counterpart of
    {!Program_cache.programs}. *)

val cached_plan : Mapping.t -> Replica_graph.t
(** [Program_cache.find plans m] — [Replica_graph.compile] through the
    shared cache: repeated lookups on the same mapping content pay the
    compile once. *)
