(** Exact minimum-stage scheduling for small instances (ε = 0).

    A branch-and-bound search over task → processor assignments that
    minimizes the pipeline stage number [S] (hence the latency
    [(2S−1)/T]) subject to condition (1): per-processor computing load and
    one-port send/receive loads within the period.  Intended as an
    optimality reference for the heuristics on instances of up to roughly
    a dozen tasks — the search is exponential in the task count.

    Pruning: tasks are placed in topological order; the partial stage
    number only grows, so branches meeting the incumbent are cut;
    processors are explored least-index-first with symmetry breaking on
    platforms whose processors are interchangeable. *)

type result = {
  stages : int;              (** the optimal pipeline stage number *)
  mapping : Mapping.t;       (** an optimal ε = 0 mapping *)
  explored : int;            (** search nodes visited *)
}

val minimum_stages :
  dag:Dag.t ->
  platform:Platform.t ->
  throughput:float ->
  result option
(** [None] when no assignment satisfies the throughput constraint, or when
    the search explores more than 2_000_000 nodes without proving
    optimality — partial results are never returned.
    @raise Invalid_argument if the graph has more than 24 tasks (the
    search would be hopeless anyway). *)
