(** The c-subsets of a platform, for §5's "c failures chosen uniformly". *)

val binom : int -> int -> float
(** [binom n k] as a float, [0] outside [0 ≤ k ≤ n].  Past [max_float] it
    saturates at [infinity] instead of wrapping. *)

val iter : procs:int -> size:int -> (bool array -> int array -> unit) -> unit
(** [iter ~procs ~size f] calls [f dead chosen] on each [size]-subset of
    [0, procs) in lexicographic order: [chosen] lists it increasing and
    [dead] marks its members.  Both arrays are reused, so [f] must not keep
    or change them; nothing is allocated per subset.
    @raise Invalid_argument if [size] is outside [0, procs]. *)
