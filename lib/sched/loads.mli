(** Per-processor computation and communication loads (§4).

    For a mapping [X], processor [u] carries per data item:
    - a computing load [Σ_u = Σ_{replicas r on u} E(task r) / s_u];
    - an input communication cycle time [Cᴵ_u]: total time the receive port
      of [u] is busy, i.e. the sum over replicas on [u] and over their
      off-processor sources of the corresponding transfer times;
    - an output cycle time [Cᴼ_u], symmetrically for the send port.

    The cycle time of [u] is [Δ_u = max(Σ_u, Cᴵ_u, Cᴼ_u)] and the achieved
    throughput is [1 / max_u Δ_u].

    The scheduler charges each committed replica with {!add_exec} and
    {!add_comm}, in O(degree), instead of the O(replicas · degree) full
    rewalk of {!of_mapping}.  The record is [private]: read the arrays
    freely, but all writes go through this interface. *)

type t = private {
  sigma : float array;  (** computing load per processor *)
  c_in : float array;   (** receive-port load per processor *)
  c_out : float array;  (** send-port load per processor *)
}

val create : n_procs:int -> t
(** All-zero loads (an empty mapping). *)

val of_mapping : Mapping.t -> t
(** Loads of a (possibly partial) mapping: only placed replicas count.
    Full O(replicas · degree) rewalk — counted under the
    [sched.loads.full_recomputes] metric.  Each replica charges [Σ], then
    per transfer [Cᴵ] before [Cᴼ], the float order {!add_exec} and
    {!add_comm} callers use. *)

val add_exec : t -> Platform.proc -> float -> unit
(** Charge execution time onto [Σ_u]. *)

val add_comm : t -> src:Platform.proc -> dst:Platform.proc -> float -> unit
(** Charge one transfer: [Cᴵ_dst] then [Cᴼ_src], in that order. *)

val cycle_time : t -> Platform.proc -> float
(** [Δ_u]. *)

val max_cycle_time : t -> float
(** [max_u Δ_u]; [0] for an empty mapping.  O(p). *)

val utilization : t -> throughput:float -> Platform.proc -> float
(** [U_{P_u} = T · Σ_u] (§4); between 0 and 1 whenever the throughput
    constraint holds on [u]. *)
