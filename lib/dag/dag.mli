(** Weighted directed acyclic task graphs.

    A graph [G = (V, E)] has [v] tasks numbered [0 .. v-1].  Each task carries
    an execution weight [E(t)] (abstract work units; the execution time on a
    processor of speed [s] is [E(t) / s]) and each edge carries a data volume
    (the communication time over a link of unit delay [d] is [volume * d]).

    Values of type {!t} are immutable; graphs are constructed through the
    {!Builder} interface or the {!of_edges} convenience function, both of
    which reject duplicate edges, self loops and cycles. *)

type task = int
(** Tasks are dense integer identifiers in [0 .. size - 1]. *)

type t
(** An immutable weighted DAG. *)

(** {1 Construction} *)

module Builder : sig
  type dag := t

  type t
  (** A mutable graph under construction. *)

  val create : ?name:string -> int -> t
  (** [create n] starts a graph with [n] tasks, each of execution weight
      [1.0] and no edges.  @raise Invalid_argument if [n < 0]. *)

  val set_exec : t -> task -> float -> unit
  (** [set_exec b t w] sets the execution weight of [t] to [w].
      @raise Invalid_argument if [t] is out of range or [w <= 0]. *)

  val set_label : t -> task -> string -> unit
  (** [set_label b t s] attaches a human-readable label to [t]. *)

  val add_edge : t -> ?volume:float -> task -> task -> unit
  (** [add_edge b src dst] adds a dependence [src -> dst] carrying
      [volume] (default [1.0]) data units.
      @raise Invalid_argument on out-of-range endpoints, self loops,
      non-positive volumes or duplicate edges. *)

  val build : t -> dag
  (** Freeze the builder.  @raise Invalid_argument if the edge relation
      contains a cycle.  The builder may keep being used afterwards. *)
end

val of_edges : ?name:string -> exec:float array -> (task * task * float) list -> t
(** [of_edges ~exec edges] builds a graph with [Array.length exec] tasks whose
    execution weights are [exec] and whose edge list is [edges] (given as
    [(src, dst, volume)]).  Checks are as for {!Builder}. *)

(** {1 Accessors} *)

val name : t -> string
val size : t -> int
(** Number of tasks [v]. *)

val n_edges : t -> int
(** Number of edges [e]. *)

val exec : t -> task -> float
(** Execution weight [E(t)]. *)

val label : t -> task -> string
(** Human-readable label; defaults to ["t<i>"]. *)

val succs : t -> task -> (task * float) list
(** Immediate successors with edge volumes, in increasing task order. *)

val preds : t -> task -> (task * float) list
(** Immediate predecessors with edge volumes, in increasing task order. *)

val out_degree : t -> task -> int
val in_degree : t -> task -> int

val volume : t -> task -> task -> float
(** [volume g src dst] is the data volume of edge [src -> dst].
    @raise Not_found if the edge does not exist. *)

val has_edge : t -> task -> task -> bool

(** {1 Flat views}

    Compressed-row adjacency for allocation-free traversal at scale: the
    neighbors of [t] are [cols.(row_ptr.(t)) .. cols.(row_ptr.(t+1) - 1)]
    (ascending), with matching volumes in [vols].  Built on first demand
    and cached; the arrays are shared — callers must not mutate them. *)
type csr = {
  row_ptr : int array; (* length v + 1 *)
  cols : int array;    (* length e *)
  vols : float array;  (* length e *)
}

val csr_succs : t -> csr
val entries : t -> task list
(** Tasks with no predecessor, in increasing order. *)

val exits : t -> task list
(** Tasks with no successor, in increasing order. *)

val iter_tasks : t -> (task -> unit) -> unit
val iter_edges : t -> (task -> task -> float -> unit) -> unit
val fold_tasks : t -> init:'a -> f:('a -> task -> 'a) -> 'a
val fold_edges : t -> init:'a -> f:('a -> task -> task -> float -> 'a) -> 'a

val total_exec : t -> float
(** Sum of execution weights over all tasks. *)

(** {1 Transformations} *)

val reverse : t -> t
(** The transpose graph: every edge [u -> v] becomes [v -> u].  Execution
    weights and volumes are preserved.  Used by the bottom-up R-LTF
    traversal. *)

val map_weights :
  ?exec:(task -> float -> float) ->
  ?volume:(task -> task -> float -> float) ->
  t -> t
(** Rescale node and/or edge weights, e.g. for granularity calibration. *)

val pp : Format.formatter -> t -> unit
(** Debugging printer: one line per task with its successors. *)
