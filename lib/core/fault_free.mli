(** The fault-free reference schedule of §5.

    The experimental overheads are measured against "the schedule generated
    by R-LTF without replication, assuming that the system is completely
    safe, setting ε = 0". *)

val run :
  ?opts:Sched_api.options ->
  dag:Dag.t -> platform:Platform.t -> throughput:float -> unit -> Types.outcome
(** R-LTF with [ε = 0] on the same graph, platform and throughput. *)
