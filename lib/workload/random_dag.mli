(** Random task-graph generators.

    Three structural families used across the scheduling literature (and
    by the paper's references [1, 4, 8, 11]): layered graphs, bounded
    fan-in/fan-out graphs, and series-parallel graphs.  All weights are
    drawn from caller-supplied ranges; granularity calibration is applied
    separately by {!Calibrate}. *)

type weight_spec = {
  exec_range : float * float;    (** task execution weights, e.g. (50, 150) *)
  volume_range : float * float;  (** edge data volumes, e.g. (50, 150) *)
}

val layered :
  ?weights:weight_spec ->
  rng:Rng.t ->
  tasks:int ->
  ?layers:int ->
  ?edge_density:float ->
  unit ->
  Dag.t
(** Tasks spread over [layers] layers (default [⌈√tasks⌉]); every non-entry
    task receives at least one edge from the previous layer, plus extra
    forward edges drawn with probability [edge_density] (default 0.15,
    between consecutive layers only, keeping fan-in moderate). *)

val fan_in_out :
  ?weights:weight_spec ->
  rng:Rng.t ->
  tasks:int ->
  ?max_degree:int ->
  unit ->
  Dag.t
(** Random orientation-free growth: each new task picks between 1 and
    [max_degree] (default 3) predecessors among existing tasks, biased
    toward recent ones so depth grows. *)

val series_parallel :
  ?weights:weight_spec ->
  rng:Rng.t ->
  tasks:int ->
  unit ->
  Dag.t
(** A two-terminal series-parallel graph built by random series/parallel
    expansions until at least [tasks] tasks exist.  Always satisfies
    {!Sp.is_series_parallel}. *)
