(** Deterministic parallel combinators for the experiment sweeps.

    The contract of {!map_seeded} is the whole point: as long as [f] is a
    pure function of its element — in the sweeps, every trial derives its
    entire RNG stream from the element's own seed — the output is
    byte-for-byte identical to [List.map f xs] for {e every} worker
    count.  Parallelism changes wall-clock, never results. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the pool default. *)

val map_seeded : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_seeded ~jobs f xs] equals [List.map f xs] provided [f x] depends
    only on [x].

    [jobs <= 1] is a plain sequential [List.map] — no pool, no domains
    spawned.  Otherwise the elements are dispatched on a fresh
    [jobs]-worker {!Domain_pool} (shut down before returning) and the
    results are reassembled in input order.  The first (lowest-index)
    exception is re-raised after all elements settled. *)
