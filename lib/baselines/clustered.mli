(** Hierarchical cluster-then-place variants of LTF and R-LTF.

    Communication-heavy chain edges are contracted first
    ({!Clustering.affinity}, capped so no cluster exceeds a period on the
    slowest processor), the cluster DAG is scheduled with the ordinary
    LTF/R-LTF machinery, and the cluster schedule is expanded back to task
    level mirroring the quotient's processor and source choices — which
    preserves both condition (1) and the pairwise-disjoint kill-set
    discipline (see clustered.ml for the argument).

    At a million tasks on a thousand processors this trades the direct
    schedulers' [v·m] placement probes for a quotient of a few percent of
    [v], at the cost of the latency optimality of per-task placement. *)

val ltf : (module Sched_api.Algo)
(** ["C-LTF"]: clustered LTF. *)

val rltf : (module Sched_api.Algo)
(** ["C-R-LTF"]: clustered R-LTF. *)
