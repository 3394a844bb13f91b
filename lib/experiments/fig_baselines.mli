(** Extension A: the §3 related-work heuristics on the paper workload.

    Not a figure of the paper — §3 describes these algorithms without
    evaluating them — but a natural sanity context for LTF/R-LTF: all
    heuristics run without replication (ε = 0) on the same instances, and
    we report pipeline stages, latency bound, simulated latency and
    throughput satisfaction. *)

type row = {
  name : string;
  stages : Stats.summary;
  latency_bound : Stats.summary;
  sim_latency : Stats.summary;
  meets_throughput : int;  (** graphs (out of the total) meeting T *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  ?jobs:int ->
  unit ->
  row list
(** Defaults: seed 2009, 30 graphs, granularity 1.0, 1 job.  Graphs are
    measured on [jobs] worker domains (identical output for every value).
    Prints a table and writes [fig-baselines.csv]. *)
