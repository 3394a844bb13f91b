(** Extension E: platform cost minimization (§6's last bullet).

    For paper-workload instances, rent the cheapest subset of the
    20-processor platform on which R-LTF still meets the throughput and a
    latency budget, and report the saving. *)

type row = {
  granularity : float;
  kept_procs : Stats.summary;   (** processors still rented *)
  cost_fraction : Stats.summary; (** kept cost / full cost, in [0, 1] *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  unit ->
  row list
(** Defaults: 8 graphs per granularity in {0.6, 1.0, 1.6}, ε = 1, latency
    budget 1.5× the full-platform R-LTF bound.  Prints a table and writes
    [fig-cost.csv]. *)
