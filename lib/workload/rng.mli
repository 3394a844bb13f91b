(** Deterministic random source (SplitMix64).

    The experiment harness needs runs that are reproducible across machines
    and OCaml versions, so it owns its generator instead of using
    [Stdlib.Random]. *)

type t

val create : seed:int -> t
(** A fresh stream; equal seeds give equal streams. *)

val split : t -> t
(** An independent stream derived from (and advancing) this one. *)

val copy : t -> t
(** A stream that replays this one's next draws; neither advances the
    other. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound - 1].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [[0, x)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [[lo, hi)]. *)

val exponential : t -> rate:float -> float
(** Exponentially distributed with the given rate (mean [1 / rate]) —
    the fail-stop inter-arrival law of the operations simulator.
    @raise Invalid_argument if [rate <= 0]. *)

val uniform_int : t -> lo:int -> hi:int -> int
(** Uniform in [[lo, hi]] (inclusive). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
