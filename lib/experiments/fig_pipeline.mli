(** Extension D: event-driven validation of the analytic throughput.

    The scheduler promises a throughput through the load conditions (1);
    the discrete-event one-port engine checks the promise by streaming a
    window of items through each schedule at the desired period
    T = {!Paper_workload.throughput}[ ~eps:1] and measuring the sustained
    output rate and the steady-state latency (which the
    stage-synchronous model upper-bounds). *)

(** One graph at one granularity; every field is [nan] when the
    best-effort schedule failed or misses T, and a field is [nan] when
    the run did not yield it. *)
type sample = {
  sustained : float;  (** measured items/unit time *)
  steady_latency : float;  (** latency of the last simulated item *)
  stage_model : float;  (** (2·S_eff−1)/T for comparison *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  (float * sample list) list
(** One row per granularity in {0.4, 1.0, 1.6} where every field was
    measured: the granularity and its samples, newest graph first.
    Defaults: 10 graphs, 30 items, ε = 1.  Graphs are measured by
    {!Fig_common.graph_pass} on [jobs] worker domains.  Prints a table
    and writes [fig-pipeline.csv]. *)
