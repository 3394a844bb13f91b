(** Problem statements and outcomes shared by the scheduling algorithms. *)

type problem = {
  dag : Dag.t;
  platform : Platform.t;
  eps : int;  (** number of tolerated processor failures ε *)
  throughput : float;  (** desired throughput T; the period is Δ = 1/T *)
}

val problem :
  dag:Dag.t -> platform:Platform.t -> eps:int -> throughput:float -> problem
(** Checked constructor.
    @raise Invalid_argument if [eps < 0], [eps >= m] or
    [throughput <= 0]. *)

val period : problem -> float
(** [Δ = 1 / T]. *)

type failure =
  | No_feasible_processor of Dag.task * int
      (** no processor could host the given (task, copy) without violating
          the throughput constraint or the locking rules *)
  | Derived_overload of Platform.proc * float
      (** strict R-LTF only: the bottom-up placements were feasible, but no
          forward fault-tolerant communication structure fits the period on
          the given processor (whose cycle time is reported) *)

val failure_to_string : failure -> string

type outcome = (Mapping.t, failure) result
