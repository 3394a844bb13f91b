(** Extension A: the §3 related-work heuristics on the paper workload.

    Not a figure of the paper — §3 describes these algorithms without
    evaluating them — but a natural sanity context for LTF/R-LTF: all
    heuristics run without replication (ε = 0) on the same instances, and
    we report pipeline stages, latency bound, simulated latency and
    throughput satisfaction. *)

(** One algorithm's schedule of one graph (graphs it failed to schedule
    give no sample). *)
type sample = {
  stages : float;
  latency_bound : float;
  sim_latency : float;  (** [nan] when the simulation lost the output *)
  meets_throughput : bool;
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  (string * sample list) list
(** One row per algorithm with a measured stage count, latency bound and
    simulated latency, in registry order: its name and its samples,
    newest graph first.  Defaults: seed 2009, 30 graphs, granularity 1.0.
    Graphs are measured by {!Fig_common.graph_pass} on [jobs] worker
    domains.  Prints a table and writes [fig-baselines.csv]. *)
