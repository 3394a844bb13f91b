(** Extension B: the symmetric problems of §6 on the paper workload.

    For each random instance: the largest throughput R-LTF sustains under
    a latency bound (and ε = 1), and the largest ε it sustains under the
    paper's throughput and the same latency bound. *)

(** One graph at one granularity; a field is [nan] when the instance
    admitted no value (or plain R-LTF failed on it). *)
type sample = { best_throughput : float; best_eps : float }

val run :
  ?out_dir:string ->
  ?seed:int ->
  ?graphs:int ->
  jobs:int ->
  unit ->
  (float * sample list) list
(** One row per granularity in {0.6, 1.0, 1.4, 2.0} where both fields
    were measured: the granularity and its samples, newest graph first.
    Defaults: 10 graphs.  The latency bound is [1.5 × (2S−1)/T] of the
    plain R-LTF schedule of the instance.  Graphs are measured by
    {!Fig_common.graph_pass} on [jobs] worker domains.  Prints a table and
    writes [fig-symmetric.csv]. *)
