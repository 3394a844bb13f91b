(** Extension D: event-driven validation of the analytic throughput.

    The scheduler promises a throughput through the load conditions (1);
    the discrete-event one-port engine checks the promise by streaming a
    window of items through each schedule at the desired period and
    measuring the sustained output rate and the steady-state latency
    (which the stage-synchronous model upper-bounds). *)

type row = {
  granularity : float;
  desired_throughput : float;
  sustained : Stats.summary;      (** measured items/unit time *)
  steady_latency : Stats.summary; (** latency of the last simulated item *)
  stage_model : Stats.summary;    (** (2·S_eff−1)/T for comparison *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  ?items:int ->
  unit ->
  row list
(** Defaults: 10 graphs per granularity in {0.4, 1.0, 1.6}, 30 items,
    ε = 1.  Prints a table and writes [fig-pipeline.csv]. *)
