(** Extension L: schedule-time and simulate-time scaling on the [huge]
    workload family (v up to 10⁶ tasks, p up to 10³ processors), under
    flat LTF and hierarchical C-LTF.  See EXPERIMENTS.md. *)

type point = {
  v : int;  (** requested task count *)
  m : int;
  eps : int;
  algo : string;
  sched_s : float;  (** CPU seconds to schedule *)
  sim_s : float;  (** CPU seconds to compile + replay one item *)
  stages : int;
  latency : float;  (** simulated latency of item 0; nan if lost *)
  finish_p50 : float;  (** replica finish-time quantiles of item 0 *)
  finish_p999 : float;
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?v_sweep:int list ->
  ?m_sweep:int list ->
  unit ->
  point list
(** Writes [fig-scaling.csv] and prints the scaling plots.  Each
    (v, m, algo) contributes one point; failed schedules are reported
    and skipped.  Runs at ε = 1; deterministic in [seed]. *)
