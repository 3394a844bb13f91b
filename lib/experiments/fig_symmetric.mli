(** Extension B: the symmetric problems of §6 on the paper workload.

    For each random instance: the largest throughput R-LTF sustains under
    a latency bound (and ε = 1), and the largest ε it sustains under the
    paper's throughput and the same latency bound. *)

type row = {
  granularity : float;
  best_throughput : Stats.summary;  (** over the instances that admitted one *)
  best_eps : Stats.summary;
}

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  unit ->
  row list
(** Defaults: 10 graphs per granularity.  The latency bound is
    [1.5 × (2S−1)/T] of the plain R-LTF schedule of the instance.
    Prints a table and writes [fig-symmetric.csv]. *)
