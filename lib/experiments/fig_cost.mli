(** Extension E: platform cost minimization (§6's last bullet).

    For paper-workload instances, rent the cheapest subset of the
    20-processor platform on which R-LTF still meets the throughput and a
    latency budget, and report the saving.  Both fields of a sample are
    [nan] when R-LTF or the minimization failed. *)

type sample = {
  kept_procs : float;  (** processors still rented *)
  cost_fraction : float;  (** kept cost / full cost, in [0, 1] *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  (float * sample list) list
(** One row per granularity in {0.6, 1.0, 1.6} with a measured sample:
    the granularity and its samples, newest graph first.  Defaults: 8
    graphs, ε = 1, latency budget 1.5× the full-platform R-LTF bound.
    Graphs are measured by {!Fig_common.graph_pass} on [jobs] worker
    domains.  Prints a table and writes [fig-cost.csv]. *)
