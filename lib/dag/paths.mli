(** Path queries on weighted DAGs. *)

val critical_path : Dag.t -> Levels.weights -> Dag.task list
(** A longest weighted path from an entry to an exit task, as the ordered
    list of tasks along it ([[]] for the empty graph). *)

val all_paths : ?limit:int -> Dag.t -> Dag.task list list
(** Enumerate entry-to-exit paths (at most [limit], default 10_000), in a
    deterministic order.  Used by the EXPERT baseline which processes paths
    by decreasing execution time. *)
