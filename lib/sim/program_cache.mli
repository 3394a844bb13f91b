(** Bounded LRU caches of per-mapping compiled artifacts, shared by the
    crash estimator, the stage-latency model, the figure sweeps and the
    operations layer's epoch resume — so revisiting a mapping (recovery
    chains, repeated estimates, convergence sweeps) pays the compile
    once.

    Keys are {!digest}s of the mapping's {e content} — DAG weights and
    edges, platform speeds and bandwidths, replica placements and source
    sets — not physical identity.  Mappings are mutable; content keying
    makes the caches self-correcting: a mapping edited after a lookup
    digests differently next time and is recompiled.  (As everywhere
    else, a compiled artifact snapshots the mapping at compile time —
    mutating the mapping does not retroactively change programs already
    in hand.)

    Lookups are thread-safe (one mutex per cache, shared across domains;
    the per-domain [sim.cache.hits] / [sim.cache.misses] counters merge
    at {!Obs.publish} like every other counter) and additionally kept in
    per-cache {!Atomic} tallies readable without the observability layer
    enabled. *)

type 'v t

val create : capacity:int -> (Mapping.t -> 'v) -> 'v t
(** A cache holding at most [capacity] artifacts, building misses with
    the given function under the cache lock (concurrent misses on one
    mapping build once).  Past capacity the least-recently-used entry is
    evicted.
    @raise Invalid_argument when [capacity < 1]. *)

val digest : Mapping.t -> string
(** The content key: a 16-byte MD5 over the DAG (task weights, edges and
    volumes), the platform (per-processor speeds, pairwise bandwidths),
    the replication degree and the serialized placement ({!Mapping_io.print},
    which covers replica placements and source sets). *)

val find : 'v t -> Mapping.t -> 'v
(** The artifact for this mapping content — cached, or built and
    remembered.  Counts a hit or a miss (atomics + [sim.cache.*]). *)

val mem : 'v t -> Mapping.t -> bool
(** Whether the mapping's content is currently cached (no counters, no
    build — for tests and introspection). *)

val length : 'v t -> int
(** Entries currently held ([<= capacity]). *)

val capacity : 'v t -> int

val hits : 'v t -> int
(** Lifetime hit count of this cache (atomic; independent of
    {!Obs.enabled}). *)

val misses : 'v t -> int

val clear : 'v t -> unit
(** Drop every entry (counters keep their lifetime values). *)

(** {2 The shared instances} *)

val programs : Engine.program t
(** The global compiled-program cache (capacity 64), used by
    [Crash.estimate ~source:(Of_mapping m)], the traffic sweeps and the
    operations layer's per-epoch programs. *)

val program : Mapping.t -> Engine.program
(** [find programs m]. *)

(** The stage-latency plan counterpart ([Stage_latency.cached_plan])
    lives in [Stage_latency], next to the model it caches. *)
