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

type row = {
  setting : string;  (** the graph family or the topology *)
  algo : string;
  stages : Stats.summary;
  latency : Stats.summary;
  messages : Stats.summary;
  meets : int;  (** schedules meeting the throughput *)
}

val families : ?out_dir:string -> ?seed:int -> ?graphs:int -> unit -> row list
(** Defaults: 12 graphs per family.  Prints a table and writes
    [fig-families.csv]. *)

val topology : ?out_dir:string -> ?seed:int -> ?graphs:int -> unit -> row list
(** Defaults: 12 graphs per topology.  Prints a table and writes
    [fig-topology.csv]. *)
