(** Post-failure recovery: re-establish the replication degree.

    The active replication scheme survives up to ε failures without any
    reaction, but every failure consumes tolerance: after [c] crashes the
    schedule only survives [ε − c] further ones.  This module rebuilds a
    full-strength mapping after actual failures, keeping every surviving
    replica where it is (no task migration: the pipeline keeps flowing) and
    re-placing only the replicas that lived on the failed processors, then
    re-deriving all communication structure under the kill-set discipline.

    The paper stops at static tolerance; this is the natural operational
    complement ("further work" in the §6 sense). *)

type error =
  | Not_enough_processors
      (** fewer than ε + 1 processors survive, so the replication degree
          cannot be restored *)
  | No_room of Dag.task * int
      (** the given replica cannot be re-placed on any surviving processor
          without colliding with a sibling or — when a throughput bound is
          given — without pushing the host's execution load beyond the
          period.  Unreachable without a bound: with ε + 1 survivors and
          at most ε live siblings, a sibling-free survivor always exists. *)

val error_to_string : error -> string

val restore :
  ?throughput:float ->
  Mapping.t ->
  failed:Platform.proc list ->
  (Mapping.t, error) result
(** [restore m ~failed] returns a complete mapping on the same platform in
    which no replica sits on a failed processor, replicas that were not on
    failed processors keep their placement, and the kill sets of each
    task's replicas are pairwise disjoint within the surviving processors
    (so the result again tolerates ε arbitrary further failures among
    them).  Re-placed replicas go to the least-loaded eligible surviving
    processor.  [throughput] makes the re-placement respect the execution
    part of condition (1) — a survivor whose cycle time would exceed the
    period is not eligible, so restoration can fail with {!No_room} where
    the unconstrained call would overload a processor — and makes the
    source derivation load-aware.  Degraded-mode callers drop the bound
    and accept the slower achieved period (see [Recovery_policy]). *)
