(** Structural and semantic validation of replicated mappings.

    The checker re-verifies from first principles the guarantees the
    scheduling algorithms are supposed to establish; it is used pervasively
    by the test suite and available to library users as a debugging aid. *)

type error =
  | Missing_replica of Replica.id
      (** the mapping is incomplete *)
  | Colocated_replicas of Dag.task * Platform.proc
      (** two replicas of the same task share a processor *)
  | Bad_source of Replica.id * string
      (** a source set does not match the DAG predecessors *)
  | Throughput_violated of Platform.proc * float
      (** cycle time of the processor exceeds the period (value = Δ_u) *)
  | Not_fault_tolerant of Platform.proc list
      (** this set of at most ε processor failures loses some exit task *)

val error_to_string : error -> string

val structure : Mapping.t -> error list
(** Completeness, replica-placement disjointness and source-set shape.
    An empty list means the mapping is structurally sound. *)

val throughput : Mapping.t -> throughput:float -> error list
(** Per-processor throughput feasibility ([Δ_u ≤ 1/T] for all [u]). *)

val survives : Mapping.t -> failed:Platform.proc list -> bool
(** Whether every exit task still produces a result when the given
    processors fail (fail-silent from time 0): a replica is alive iff its
    processor survives and, for each predecessor, at least one of its source
    replicas is alive; an exit task must retain at least one alive
    replica.  Requires a structurally sound mapping. *)

val fault_tolerance : ?max_failures:int -> Mapping.t -> error list
(** Exhaustively check {!survives} for every failure set of size up to
    [max_failures] (default [eps]).  Exponential in [max_failures]; intended
    for tests with small ε and m. *)

val all : Mapping.t -> throughput:float -> error list
(** {!structure}, then (if sound) {!throughput} and {!fault_tolerance}. *)
