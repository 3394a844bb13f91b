(** Graphviz DOT export of task graphs. *)

val to_string : ?highlight:Dag.task list -> Dag.t -> string
(** DOT source for the graph; nodes carry their label and execution weight,
    edges their data volume.  Tasks in [highlight] are drawn filled (e.g. a
    critical path). *)
