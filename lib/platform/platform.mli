(** Heterogeneous target platforms (§2).

    A platform has [m] fully interconnected processors [P_0 .. P_{m-1}] of
    speeds [s_u]; the link between distinct processors [P_k] and [P_h] has a
    bandwidth [d_kh] (equivalently a unit message delay [1 / d_kh]).  The
    communication model is the bi-directional one-port model: a processor
    can be engaged in at most one send and one receive at any time, with
    full computation/communication overlap. *)

type proc = int
(** Processors are dense integer identifiers in [0 .. m - 1]. *)

type t

val create :
  ?name:string -> speeds:float array -> bandwidth:float array array -> unit -> t
(** [create ~speeds ~bandwidth ()] builds a platform with [m = Array.length
    speeds] processors.  [bandwidth] must be an [m × m] matrix, symmetric
    and positive off the diagonal (the diagonal is ignored: same-processor
    transfers are free).
    @raise Invalid_argument if shapes or signs are wrong. *)

val homogeneous : ?name:string -> m:int -> speed:float -> bandwidth:float -> unit -> t
(** A platform with [m] identical processors and identical links. *)

val name : t -> string
val size : t -> int
(** Number of processors [m]. *)

val speed : t -> proc -> float

val bandwidth : t -> proc -> proc -> float
(** Bandwidth of the link between two distinct processors.
    @raise Invalid_argument when both arguments are equal. *)

val unit_delay : t -> proc -> proc -> float
(** [1 / bandwidth]; [0] when both processors coincide (local transfers are
    free). *)

val exec_time : t -> proc -> float -> float
(** [exec_time p u w] is the execution time of [w] work units on processor
    [u], i.e. [w / speed u]. *)

val comm_time : t -> proc -> proc -> float -> float
(** [comm_time p src dst vol] is the transfer time of [vol] data units over
    the [src]–[dst] link; [0] if [src = dst]. *)

val procs : t -> proc list
(** All processors in increasing order. *)

(** The four aggregates below are folded once when the platform is built
    ({!create}, {!homogeneous}, {!restrict}), so reading them is O(1). *)

val mean_inverse_speed : t -> float
(** Mean over processors of [1 / s_u]: the expected execution time of a unit
    of work on a random processor, used for averaged path lengths. *)

val mean_unit_delay : t -> float
(** Mean unit delay over the distinct processor pairs; [0] when [m = 1]. *)

val slowest_exec_time : t -> float -> float
(** Execution time of a workload on the slowest processor (used by the
    granularity g(G, P) of §2). *)

val slowest_comm_time : t -> float -> float
(** Transfer time of a volume over the slowest link; [0] when [m = 1]. *)

val restrict : t -> proc array -> t
(** The sub-platform induced by the given processors, in the given order
    (named ["<name>-subset"]).  Built directly from the parent's validated
    tables — no re-validation, one copy — so subset probes (platform-cost
    minimization) stay cheap.
    @raise Invalid_argument on an empty selection. *)

val fastest_proc : t -> proc
(** A processor of maximal speed (smallest index among ties). *)
