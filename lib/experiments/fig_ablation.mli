(** Extension C: ablation of the implementation's design choices.

    DESIGN.md documents three load-bearing mechanisms added on top of the
    paper's pseudocode: the one-to-one pairing procedure, the two
    source-set variants of the general branch, and the kill-chain lane
    budget.  This experiment switches each off (or rescales it) on the
    paper workload and reports what every mechanism buys: strict-mode
    success rate, pipeline stages, latency bound and replica messages. *)

type row = {
  name : string;
  strict_ok : int;        (** strict-mode successes out of the graph count *)
  meets : int;            (** best-effort schedules meeting the throughput *)
  stages : Stats.summary; (** over best-effort schedules *)
  latency : Stats.summary;
  messages : Stats.summary;
}

val configurations : (string * Scheduler.options) list

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  ?jobs:int ->
  unit ->
  row list
(** Defaults: 20 graphs, granularity 1.0, ε = 1, 1 job.  Graphs are
    measured on [jobs] worker domains (identical output for every value).
    Prints a table and writes [fig-ablation.csv]. *)
