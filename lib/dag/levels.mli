(** Top and bottom levels (§2 of the paper).

    The top level [tl t] is the length of the longest path from an entry task
    to [t], excluding the weight of [t] itself; entry tasks have top level 0.
    The bottom level [bl t] is the length of the longest path from [t] to an
    exit task, including the weight of [t]; an exit task's bottom level is
    its own weight.  Path lengths sum node weights and edge weights, both
    supplied as functions so callers can plug in average execution and
    communication times on a heterogeneous platform (as in [Topcuoglu et
    al. 2002]). *)

type weights = {
  node : Dag.task -> float;  (** weight of a task on the path *)
  edge : Dag.task -> Dag.task -> float -> float;
      (** weight of an edge given source, destination and data volume *)
}

val exec_weights : Dag.t -> weights
(** Node weight = execution weight of the task, edge weight = data volume:
    the natural weights on a homogeneous unit-speed platform. *)

val top : Dag.t -> weights -> float array
val bottom : Dag.t -> weights -> float array

val priority : Dag.t -> weights -> float array
(** [tl + bl], the task priority used by LTF and R-LTF.  Tasks on a critical
    path all share the maximal value. *)

val critical_path_length : Dag.t -> weights -> float
(** Maximum of [bottom] over entry tasks, i.e. the weighted longest path of
    the graph (0 for the empty graph). *)
