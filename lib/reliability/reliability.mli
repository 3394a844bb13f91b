(** Exact availability calculus for replicated mappings.

    The Monte-Carlo crash experiments ({!Crash}, [Stage_latency]) estimate
    the defeat probability of a schedule by drawing thousands of failure
    sets; yet for the static fail-silent model those probabilities are a
    finite inclusion–exclusion over the kill sets of the mapping.  This
    module computes them in closed form.

    {2 Model}

    A failure pattern is a set [F] of dead processors.  Replica liveness
    follows the same topological sweep as the simulator: a replica is dead
    iff its processor is in [F] or some predecessor group lost all of its
    source replicas; the schedule is {e defeated} iff some exit task loses
    every replica.  An alive replica computes in stage
    [max(1, max over groups (min over alive sources (stage + eta)))] with
    [eta = 0] when co-located and [1] across processors, and the effective
    depth of the pattern is [max over exits (min over alive copies stage)];
    single-item degraded latency is [(2 depth - 1) / T].  That sweep is
    [Replica_graph.depth ~failed] on the mapping's compiled graph, the
    oracle for one pattern: [None] means defeated, and a processor of
    [F] outside [0, m) raises [Invalid_argument] naming
    [Replica_graph.depth].

    Both the defeat predicate and the depth are monotone in [F] (killing
    more processors only deepens or defeats the schedule), so every event
    ["depth >= d"] — including defeat, its [d = infinity] limit — is an
    upward-closed family described exactly by its minimal {e cut sets}: the
    minimal processor sets whose failure triggers the event.  {!analyze}
    derives those antichains of {!Bitset} cuts by dynamic programming over
    the replica DAG; the probability evaluators then sum the family by
    Shannon decomposition over its support — exactly, with no sampling.

    {2 Assumptions}

    Failures are static (decided before the stream starts), fail-silent,
    and processor-level; the two supported distributions are the paper's
    uniform choice of exactly [c] distinct crashed processors and the
    independent per-processor fail-stop model.  These match what
    [Crash.estimate]'s sampler and [Failure_gen] draw from, which is
    what makes the calculus a ground truth for the Monte-Carlo
    estimators. *)

type t
(** The compiled analysis of one complete mapping: its [Replica_graph.t]
    plus two memos filled on demand — the cut-set families, and per crash
    count the one enumeration sweep that {!defeat_probability},
    {!survival_probability}, {!depth_distribution},
    {!latency_distribution} and {!expected_latency} share under
    [Uniform_crashes c] (so asking all of them of one [t] enumerates each
    [c] once).  The memos are mutable and unsynchronized: a [t] must not
    be used from two domains at the same time. *)

(** Failure distribution to evaluate a cut-set family under. *)
type model =
  | Uniform_crashes of int
      (** Exactly [c] dead processors, chosen uniformly among the
          [choose (m, c)] subsets — the paper's §5 crash model. *)
  | Independent of (Platform.proc -> float)
      (** Each processor [u] dead independently with probability
          [f u] (the fail-stop model of {!Failure_gen}-style hazards). *)
  | Correlated of {
      domains : Faults.Domains.t;
          (** partition of the processors into failure domains (racks);
              must cover exactly the analysis' platform *)
      p_shock : int -> float;
          (** probability the domain's common shock fires, killing every
              member; indexed by domain *)
      p_fail : Platform.proc -> float;
          (** idiosyncratic failure probability of a processor whose
              domain was not shocked *)
    }
      (** Marshall–Olkin dependence: a processor is dead iff its own
          independent failure fires {e or} its domain's common shock
          does — the static counterpart of
          [Failure_gen.correlated_lifetimes].  [p_shock d = 0]
          everywhere degenerates to [Independent p_fail] exactly.
          Evaluated by conditioning on the [2^D] shock patterns (each
          conditional is an independent-model Shannon sum), so the
          domain count is capped at 20. *)

val analyze : ?max_cut_card:int -> Mapping.t -> t
(** Build the calculus for a complete mapping.  [max_cut_card] (default:
    unbounded) prunes every cut larger than the given cardinality while
    the families are built; pruning is sound for any evaluation that only
    asks about patterns with at most that many failures (cuts only grow
    along the DP, so a pruned cut can never re-enter the horizon), and it
    is what keeps the cross products polynomial on heavily replicated
    mappings.  Evaluators below refuse models the pruned analysis cannot
    answer exactly.
    @raise Invalid_argument if the mapping is not complete. *)

val defeat_cut_sets : t -> Bitset.t list
(** The minimal failure sets that defeat the schedule, as a canonically
    ordered antichain (cuts larger than the horizon pruned).  Empty when
    the schedule cannot be defeated within the horizon. *)

val defeat_probability : ?enumerate_below:int -> t -> model -> float
(** Exact probability that the failure pattern defeats the schedule.

    For [Uniform_crashes c] the evaluator picks between two exact
    strategies: when [choose (m, c)] is at most [enumerate_below]
    (default 20000) it replays the oracle sweep over every [c]-subset
    (once per [t] and [c]: the sweep is memoized), otherwise it sums the
    cut-set family by Shannon decomposition.
    [~enumerate_below:0] forces the antichain path (the tests hold the
    two equal); the knob never changes the result, only the work.

    @raise Invalid_argument if the model is out of range ([c < 0] or
    [c > m]), if [c] exceeds the pruning horizon, if [Independent] or
    [Correlated] is asked of a pruned analysis (or returns a
    probability outside [0, 1]), or if a [Correlated] model has more
    than 20 domains or domains that partition a different platform
    size. *)

val survival_probability : t -> model -> float
(** [1 - defeat_probability]. *)

val depth_distribution :
  ?enumerate_below:int -> t -> model -> (int * float) list
(** Exact distribution of the effective depth over surviving patterns:
    [(d, P(depth = d))] with [d] increasing and only strictly positive
    masses listed.  The masses sum to [survival_probability] (defeat holds
    the rest).  Strategy choice and raises as {!defeat_probability}. *)

val latency_distribution :
  t -> throughput:float -> model -> (float * float) list
(** {!depth_distribution} mapped through the stage-synchronous latency
    [(2 d - 1) / throughput]: the exact degraded-latency distribution. *)

val expected_latency :
  ?enumerate_below:int -> t -> throughput:float -> model -> float option
(** Mean single-item latency conditioned on survival — the analytic
    counterpart of a sampled crash estimate's mean; [None] when survival has
    probability 0. *)

val closed_form_defeat : t -> pfail:(Platform.proc -> float) -> float option
(** The independent-model defeat probability as a direct product
    [1 - prod over exits (1 - prod over copies (1 - prod over cut procs
    (1 - pfail u)))] — available exactly when every per-copy death family
    is a union of single-processor cuts with pairwise disjoint supports
    (e.g. unreplicated interval mappings), which is when the product
    formula is exact.  [None] when the structure does not admit it or the
    analysis was pruned; when [Some], it equals
    [defeat_probability t (Independent pfail)] up to rounding. *)
