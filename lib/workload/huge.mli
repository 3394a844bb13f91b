(** The [huge] workload family: million-task layered pipelines for the
    scaling experiments.

    A [layers × width] grid (width = [m]) of straight chain edges with
    sparse cross-lane edges every [cross_every] layers, built in O(v + e)
    with the granularity baked into the volume draws (no calibration
    pass).  See huge.ml for the layout and the analytic throughput. *)

type spec = {
  tasks : int;
  m : int;
  cross_every : int;
  exec_range : float * float;
  volume_range : float * float;
  speed_range : float * float;
  unit_delay : float;
  target_utilization : float;
}

val default_spec : spec
(** v = 10⁶ tasks on m = 10³ processors. *)

val throughput : spec -> eps:int -> float
(** The analytic throughput putting every processor at
    [target_utilization] mean load with [ε+1] replicas. *)

val instance :
  spec -> rng:Rng.t -> granularity:float -> Paper_workload.instance
(** One huge instance on a platform with speeds drawn from
    [speed_range] and constant link delay [unit_delay]; [granularity]
    scales the volumes. *)
