(** Pipeline stages (§4).

    Stages record processor changes along dependence paths: entry replicas
    are in stage 1, and a replica's stage is
    [S = max over its source replicas of (S_source + η)] with [η = 0] when
    source and consumer share a processor and [η = 1] otherwise.  The
    pipeline depth [S] of a mapping is the largest replica stage, and drives
    the latency [L = (2S − 1) / T]. *)

type t

val compute : Mapping.t -> t
(** Stages of a complete or partial mapping.  For partial mappings only the
    placed replicas (whose sources are necessarily placed) are staged. *)

val of_replica : t -> Replica.id -> int
(** Stage of a placed replica (≥ 1).
    @raise Invalid_argument if the replica is not placed. *)

val depth : t -> int
(** The pipeline stage number [S]: largest replica stage, or [0] for an
    empty mapping. *)
