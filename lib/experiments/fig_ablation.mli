(** Extension C: ablation of the implementation's design choices.

    DESIGN.md documents three load-bearing mechanisms added on top of the
    paper's pseudocode: the one-to-one pairing procedure, the two
    source-set variants of the general branch, and the kill-chain lane
    budget.  This experiment switches each off (or rescales it) on the
    paper workload and reports what every mechanism buys: strict-mode
    success rate, pipeline stages, latency bound and replica messages. *)

(** One configuration on one graph.  The floats measure the best-effort
    schedule and are [nan] when it failed. *)
type sample = {
  strict_ok : bool;  (** the strict-mode schedule succeeded *)
  meets : bool;  (** the best-effort schedule meets the throughput *)
  stages : float;
  latency : float;  (** the latency bound (2S−1)/T *)
  messages : float;  (** replica messages *)
}

val configurations : (string * Scheduler.options) list

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  (string * sample list) list
(** One row per configuration, in {!configurations} order: its name and
    its samples, newest graph first.  Defaults: 20 graphs, granularity
    1.0, ε = 1.  Each graph is generated once for all configurations and
    measured by {!Fig_common.graph_pass} on [jobs] worker domains.
    Prints a table and writes [fig-ablation.csv]. *)
