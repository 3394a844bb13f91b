(** Performance metrics of a mapping (§2, §4). *)

val granularity : Dag.t -> Platform.t -> float
(** [g(G, P)]: ratio of the sum over tasks of their slowest computation time
    to the sum over edges of their slowest communication time (§2).
    [infinity] when the graph has no edge or the platform a single
    processor. *)

val paper_weights : Dag.t -> Platform.t -> Levels.weights
(** The platform-averaged path weights of the paper's priorities: a task
    weighs its work times {!Platform.mean_inverse_speed}, an edge its volume
    times {!Platform.mean_unit_delay}.  Shared by the schedulers, the
    baselines and the engine's dispatch priorities. *)

val achieved_throughput : Mapping.t -> float
(** [1 / max_u Δ_u] for the loads of the mapping; [infinity] for an empty
    mapping. *)

val period : Mapping.t -> float
(** Inverse of {!achieved_throughput}: the smallest iteration period the
    mapping can sustain. *)

val meets_throughput : ?loads:Loads.t -> Mapping.t -> throughput:float -> bool
(** Whether every processor satisfies [T · Σ_u ≤ 1], [T · Cᴵ_u ≤ 1] and
    [T · Cᴼ_u ≤ 1] (condition (1) aggregated over the final mapping).
    A small relative tolerance absorbs floating-point accumulation.
    [?loads], when given, must be the loads of [m] (skips the rewalk). *)

val stage_depth : Mapping.t -> int
(** Pipeline stage number [S]. *)

val latency_of_depth : throughput:float -> int -> float
(** [(2S − 1) / T], the latency of [S] pipeline stages at throughput [T]
    (§4, after [Hary–Özgüner 1999]); [Stage_latency] and [Reliability]
    convert effective depths with it too. *)

val latency_bound : Mapping.t -> throughput:float -> float
(** {!latency_of_depth} of {!stage_depth}: the paper's latency bound. *)
