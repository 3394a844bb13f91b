(** Extension F: optimality gap of the heuristics on small instances.

    An exact branch-and-bound ({!Optimal}) computes the minimum pipeline
    stage number for small ε = 0 instances; the heuristics' stage counts
    are reported relative to it.  This quantifies how much latency the
    greedy placement leaves on the table — something the paper could not
    report without an exact reference. *)

type row = {
  name : string;
  mean_stages : float;
  mean_ratio : float;   (** stages / optimal stages, averaged *)
  optimal_hits : int;   (** instances where the heuristic matched the optimum *)
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  unit ->
  row list
(** Defaults: 15 graphs of 9 tasks on 4 homogeneous processors.  Prints a
    table and writes [fig-optgap.csv].  Instances whose exact search
    exceeds the node limit are skipped. *)
