(** A minimal binary min-heap of immediate ints keyed by floats, used as
    the event queue of the discrete-event simulator.  Ties are served in
    insertion order, so [(key, insertion number)] is a strict total order
    and the pop sequence is fully determined by the insertions.

    The representation is exposed on purpose: keys are stored unboxed in a
    [float array], and the engine's event loop reads [h.keys.(0)] and [h.len]
    directly so that peeking at the next event time allocates nothing (an
    accessor returning [float] across the module boundary would box). *)

type t = {
  mutable keys : float array;  (** heap-ordered keys, unboxed *)
  mutable seqs : int array;  (** insertion numbers, the tie-break *)
  mutable vals : int array;
  mutable len : int;  (** live prefix of the three arrays *)
  mutable next_seq : int;
}

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val clear : t -> unit
(** Empty the heap and restart the insertion numbering, keeping the
    backing storage.  A cleared heap behaves exactly like a fresh one
    (same tie-break order), which is what the run-state arena relies
    on. *)

val add : t -> float array -> int -> unit
(** [add h slot v] inserts [v] with key [slot.(0)].  Passing the key
    through a caller-owned one-slot float array keeps the call free of
    float boxing (a [float] parameter would allocate at every call
    without flambda). *)

val unsafe_pop : t -> int
(** Remove the minimum element — the smallest key, and among equal keys
    the earliest inserted — and return its value without allocating.
    The caller must check [h.len > 0] first (and read [h.keys.(0)] before
    popping if it needs the key); undefined on an empty heap. *)
