(** Extension F: optimality gap of the heuristics on small instances.

    An exact branch-and-bound ({!Optimal}) computes the minimum pipeline
    stage number for small ε = 0 instances; the heuristics' stage counts
    are reported relative to it.  This quantifies how much latency the
    greedy placement leaves on the table — something the paper could not
    report without an exact reference. *)

(** One heuristic's schedule of one instance (instances it failed to
    schedule give no sample). *)
type sample = {
  stages : float;
  ratio : float;  (** stages / optimal stages *)
  optimal : bool;  (** the heuristic matched the optimum *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  unit ->
  (string * sample list) list
(** One row per heuristic with a sample: its name and its samples,
    newest instance first.  Defaults: 15 graphs of 9 tasks on 4
    homogeneous processors.  Prints a table and writes [fig-optgap.csv].
    Instances whose exact search exceeds the node limit are skipped, so
    the number of instances drawn depends on the search and the figure
    keeps its own loop instead of {!Fig_common.graph_pass}. *)
