(** EXPERT [Guirado, Ripoll, Roig, Luque 2005] — reference [3].

    Optimizes latency under a throughput requirement by processing the
    application's paths in decreasing execution-time order: each path is
    cut into maximal sub-paths whose combined execution fits within one
    period; the tasks of a sub-path form a stage-local cluster.  Clusters
    are then placed on processors balancing computational load.  Path
    enumeration is capped at 2000 paths; tasks not covered by any
    enumerated path join the cluster of their heaviest-volume
    neighbour. *)

val run : Dag.t -> Platform.t -> throughput:float -> Assignment.t
val mapping : Dag.t -> Platform.t -> throughput:float -> Mapping.t
