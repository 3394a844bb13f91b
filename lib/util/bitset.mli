(** Packed bitsets over small dense integer universes.

    Kill sets (§4's locked-processor sets) are subsets of the [m]
    processors, and the scheduler probes them with [disjoint] / [cardinal]
    / [union] on every candidate placement.  A balanced-tree
    [Set.Make (Int)] pays O(n log n) pointer chasing per operation; here a
    set is a normalized array of bit words, so the same operations cost
    O(m / word_size) word instructions and no per-element allocation.

    Values are immutable and normalized (no trailing zero words), so
    structural equality and polymorphic comparison coincide with set
    equality and a total order — the representation can be stored, hashed
    and compared freely, like the [Set.S] values it replaces.  Elements
    must be non-negative. *)

type elt = int

type t

val empty : t
val is_empty : t -> bool

val singleton : elt -> t
(** @raise Invalid_argument on a negative element. *)

val add : elt -> t -> t
val remove : elt -> t -> t
val mem : elt -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is the set of elements of [a] not in [b]. *)

val disjoint : t -> t -> bool
(** No allocation: a word-wise scan that stops at the first overlap. *)

val subset : t -> t -> bool
(** [subset a b]: every element of [a] is in [b]. *)

val cardinal : t -> int
(** Population count over the words. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val complement : universe:int -> t -> t
(** [complement ~universe s] is [{0 .. universe-1} \ s]: the elements of
    the dense universe not in [s].  Elements of [s] at or above
    [universe] are ignored.  The inclusion–exclusion sweeps of the
    reliability calculus use this to split a kill-set support from the
    untouched processors.
    @raise Invalid_argument on a negative universe. *)

val min_elt : t -> elt option
(** Smallest element, or [None] on the empty set — the pivot choice of
    the Shannon-decomposition evaluator. *)

val elements : t -> elt list
(** In increasing order, as [Set.Make (Int)] returns them. *)

val of_list : elt list -> t

val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
(** In increasing order. *)
