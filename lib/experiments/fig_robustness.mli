(** Extensions G and H: robustness of the LTF vs R-LTF comparison.

    Both re-run the core comparison (ε = 1, g = 1.0, best effort) on
    instances the paper did not draw and report, per (setting,
    algorithm): stages, latency bound, replica messages and throughput
    satisfaction.

    - {!families} (Ext. H) swaps the layered generator for the other
      structural families of the literature — bounded fan-in/out
      growth, series-parallel graphs and split/join stream pipelines —
      to check that the headline ordering (R-LTF needs fewer stages and
      less latency) is not an artifact of the layered generator.
    - {!topology} (Ext. G) maps the same 40–80-task layered workflows
      onto three 16-processor topologies with equal aggregate bandwidth
      — uniform, clustered (fast islands, slow backbone) and star — to
      show how the placement adapts. *)

(** One algorithm's schedule of one graph in one setting (graphs it
    failed to schedule give no sample). *)
type sample = {
  stages : float;
  latency : float;  (** the latency bound (2S−1)/T *)
  messages : float;  (** replica messages *)
  meets : bool;  (** the schedule meets the throughput *)
}

(** A row: the (setting, algorithm) it reports — the setting is the
    graph family or the topology — and its samples, newest graph first.
    Rows come sorted by key, and a pair with no sample has no row.  Both
    sweeps measure their graphs by {!Fig_common.graph_pass} on [jobs]
    worker domains. *)

val families :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  ((string * string) * sample list) list
(** Defaults: 12 graphs per family.  Prints a table and writes
    [fig-families.csv]. *)

val topology :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  ((string * string) * sample list) list
(** Defaults: 12 graphs per topology.  Prints a table and writes
    [fig-topology.csv]. *)
