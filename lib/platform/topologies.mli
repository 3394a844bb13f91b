(** Structured platform topologies.

    The paper's experiments draw every link bandwidth independently; real
    deployments have structure.  These constructors build the common
    shapes used in the topology-sensitivity experiment (Extension G) and
    by library users modelling actual clusters.  All of them remain fully
    connected (the one-port model needs no routing), the topology lives in
    the bandwidth matrix. *)

val clustered :
  ?name:string ->
  clusters:int ->
  per_cluster:int ->
  speed:float ->
  intra_bandwidth:float ->
  inter_bandwidth:float ->
  unit ->
  Platform.t
(** [clusters × per_cluster] processors of the given speed; links inside a
    cluster run at [intra_bandwidth], links between clusters at
    [inter_bandwidth].  Processor [i] belongs to cluster [i / per_cluster]. *)

val star :
  ?name:string ->
  m:int ->
  speed:float ->
  hub_bandwidth:float ->
  leaf_bandwidth:float ->
  unit ->
  Platform.t
(** Processor 0 is the hub: its links run at [hub_bandwidth]; leaf-to-leaf
    links (logically routed through the hub) at [leaf_bandwidth]. *)

val cluster_of : per_cluster:int -> Platform.proc -> int
(** The cluster index of a processor under {!clustered}'s numbering. *)
