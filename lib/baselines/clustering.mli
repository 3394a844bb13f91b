(** Cluster bookkeeping shared by the pre-clustering baselines
    (Hary–Özgüner, STDP, WMSH).

    A clustering is a partition of the tasks; clusters are later mapped
    one-to-one (or many-to-one, after merging) onto processors.  The
    structure is a union-find with per-cluster execution loads. *)

type t

val create : Dag.t -> t
(** One singleton cluster per task. *)

val same : t -> Dag.task -> Dag.task -> bool

val load : t -> int -> float
(** Total execution weight of the cluster (raw work units). *)

val merge : t -> Dag.task -> Dag.task -> unit
(** Union the two tasks' clusters. *)

val merge_if : t -> max_load:float -> Dag.task -> Dag.task -> bool
(** Merge unless the combined execution weight would exceed [max_load];
    returns whether the merge happened (also true when already together). *)

val n_clusters : t -> int

val members : t -> Dag.task list array
(** Tasks of each canonical cluster, indexed by a dense renumbering;
    clusters in increasing order of their smallest task. *)

val cut_volume : t -> float
(** Total volume of edges whose endpoints lie in different clusters. *)

(** {1 Hierarchical placement primitives}

    Cycle-safe clusterings for the cluster-then-place schedulers: only
    edges [u -> v] with [out_degree u = 1] and [in_degree v = 1] are ever
    contracted, so every cluster is a linear path segment and the quotient
    graph is guaranteed acyclic. *)

val affinity : ?max_load:float -> Dag.t -> t
(** Contract chain edges in decreasing volume order (heaviest
    communication first), capping cluster weight at [max_load]. *)

val quotient : t -> Dag.t * int array * Dag.task list array
(** [quotient t] is [(cluster_dag, cluster_of, members)]: the cluster DAG
    with summed execution weights and summed inter-cluster volumes, the
    task -> cluster-id map, and the member lists (cluster ids match
    {!members} order).  Only valid for clusterings built by {!affinity}
    (arbitrary merges may make the quotient cyclic, which
    [Dag.Builder.build] rejects). *)

val to_assignment :
  t -> Platform.t -> Assignment.t
(** Map clusters to processors: clusters in decreasing load order, each
    placed on the processor with the smallest accumulated time load
    (largest-first bin packing on heterogeneous speeds), merging beyond
    [m] clusters implicitly. *)
