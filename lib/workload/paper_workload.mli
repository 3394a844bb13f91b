(** The random workload of the paper's evaluation (§5).

    Parameters, quoted: "The number of tasks is chosen uniformly from the
    range [50, 150].  The granularity of the task graph is varied from 0.2
    to 2.0, with increments of 0.2.  The number of processors is set to 20,
    the desired throughput is set to 1/(10(ε+1)) ... the unit message
    delay of the links and the message volume between two tasks are chosen
    uniformly from the ranges [0.5, 1] and [50, 150] respectively."

    Task execution weights are drawn from [50, 150] (the companion paper's
    range) and processor speeds from [0.5, 1]; each instance is then
    calibrated to its target granularity and time-normalized (see
    {!Calibrate}). *)

(** Structural family of the generated graphs.  The paper only says the
    parameters are "consistent with those used in the literature"; the
    default is the layered family, and Extension H sweeps the others. *)
type family =
  | Layered          (** random layered DAG (default) *)
  | Fan_in_out       (** bounded-degree random growth *)
  | Series_parallel  (** random two-terminal series-parallel graph *)
  | Stream_chain     (** split/join pipeline (StreamIt-like) *)

type spec = {
  tasks_range : int * int;          (** default (50, 150) *)
  m : int;                          (** default 20 *)
  speed_range : float * float;      (** default (0.5, 1.0) *)
  unit_delay_range : float * float; (** default (0.5, 1.0) *)
  exec_range : float * float;       (** default (50.0, 150.0) *)
  volume_range : float * float;     (** default (50.0, 150.0) *)
  family : family;
  edge_density : float;
      (** default 0.06, giving e/v ≈ 1.5 as in the chain-heavy streaming
          workflows of the literature; denser graphs make the one-port
          communication budget of the low-granularity points infeasible
          for any per-task scheduler (see DESIGN.md) *)
}

val default_spec : spec

val granularities : float list
(** The sweep [0.2; 0.4; …; 2.0]. *)

val throughput : eps:int -> float
(** The paper's desired throughput [1 / (10 (ε+1))]. *)

type instance = {
  dag : Dag.t;
  plat : Platform.t;
  granularity : float;
}
(** One calibrated random instance; drawn by {!Spec.generate}. *)
