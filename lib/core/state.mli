(** Incremental scheduling state shared by LTF and R-LTF.

    Wraps a partial {!Mapping.t} together with everything the algorithms
    probe at each placement step: per-processor computing loads [Σ_u],
    communication cycle loads [Cᴵ_u]/[Cᴼ_u], mutable one-port timelines
    for contention-aware finish-time estimation, committed replica finish
    times, and incremental pipeline stages.

    A placement step places one replica ({!start_step}).  Each candidate
    placement is judged in a probe buffer the state owns, in two steps
    that leave the schedule unchanged: its {!transfers} decide condition
    (1) and the overload penalty through {!admission}, without touching a
    timeline; only then does {!evaluate} probe the timelines.  Probes
    schedule each incoming transfer earliest-fit on the pair (sender send
    port, receiver receive port) and the execution earliest-fit on the
    target processor, on top of the committed timelines; the probe's own
    transfers ride in {!Timeline.probe}s that the state owns and reuses
    from one probe to the next.  A candidate that wins becomes the
    incumbent by a {!swap} of the two buffers, and {!commit} applies the
    incumbent: the committed timelines are only written there.  The state
    is therefore single-threaded: one schedule, one domain.

    Nothing on the per-candidate path allocates: the buffers grow to the
    largest step once, floats stay in float arrays and all-float records,
    and no float crosses a module boundary as an argument or a result,
    where it would be boxed. *)

type t

val create : Types.problem -> t
(** Fresh state over the problem's DAG (which may be a reversed graph for
    the bottom-up traversal; the state is direction-agnostic). *)

val problem : t -> Types.problem
val mapping : t -> Mapping.t

val finish : t -> Replica.id -> float
(** Committed finish time of a placed replica.
    @raise Invalid_argument if not placed. *)

val stage : t -> Replica.id -> int
(** Incrementally maintained pipeline stage of a placed replica. *)

val loads : t -> Loads.t
(** The incrementally maintained per-processor loads (Σ/Cᴵ/Cᴼ).  {!commit}
    charges them through the [Loads] primitives, so readers never pay a
    full [Loads.of_mapping] rewalk. *)

val support : t -> Replica.id -> Bitset.t
(** The {e kill set} of a placed replica, a {!Bitset.t} over the
    processor indices: the processors whose individual failure prevents
    it from producing its output — its own processor, plus (transitively)
    the kill set of every sole-source predecessor replica.  A predecessor fed by all [ε+1] replicas contributes nothing:
    no single failure can silence a full replica group whose kill sets are
    pairwise disjoint, and the scheduler maintains exactly that
    disjointness invariant per task (this is the locking discipline that
    makes the active replication scheme ε-fault-tolerant). *)


val send_ready : t -> Platform.proc -> float
(** Earliest instant the send port of the processor is free forever after —
    the key used to sort predecessor replicas in the one-to-one procedure. *)

val slot : t -> Replica.id -> int
(** The replica's index [task * (ε+1) + copy]: the form a source row
    names replicas in. *)

(** {1 The placement step} *)

val start_step : t -> task:Dag.task -> copy:int -> unit
(** Begin placing replica [copy] of [task] (every predecessor placed):
    read the placed replicas of its predecessors once, and empty the
    incumbent.

    A {e source row} chooses the sources of a placement, one entry per
    predecessor [k] (in {!Dag.preds} order): the slot of its one source
    replica, or [-1] for the predecessor's whole replica group.  Rows are
    caller-owned [int array]s with at least [Dag.in_degree] entries. *)

val general_rows :
  t ->
  Sched_api.source_policy ->
  claimed:Bitset.t ->
  budget:int ->
  proc:Platform.proc ->
  int array array ->
  int
(** [general_rows s policy ~claimed ~budget ~proc rows]: the general
    branch's source rows for placing the step's replica on [proc], written
    to [rows.(0)] and, when the policy offers both and they name different
    sources, [rows.(1)]; the result is how many it wrote.  The greedy row
    sole-sources each predecessor through the replica with a kill set
    disjoint from [claimed] that grows the accumulated kill set (from
    [{proc}]) least within the lane [budget], then sends fastest, then has
    the smallest slot; the conservative row only through such a replica
    co-located on [proc]; every other predecessor sends its whole group.
    A one-replica group (ε = 0) is the same source as its replica, so
    two rows that differ only there count as one.  Allocates nothing. *)

(** {2 Floors} *)

val set_floor : t -> int array -> unit
(** Take the source row every variant of the step draws at least one
    replica per predecessor from: the floors below bound each of them. *)

val iter_hosts : t -> (Platform.proc -> unit) -> unit
(** Apply the function to the host of every floor source, predecessor by
    predecessor; a host that carries several of them is visited once per
    replica. *)

val stage_floor : t -> proc:Platform.proc -> int
(** A lower bound on the stage of every probe on [proc]: the latest
    per-predecessor minimum of the floor sources' stage, +1 for a remote
    source. *)

val finish_floor_above : t -> proc:Platform.proc -> bool
(** Whether a lower bound on the finish of every probe on [proc] lies
    above the incumbent's finish.  The data cannot be ready before the
    latest per-predecessor earliest arrival of the floor sources, and the
    bound is the processor timeline's earliest fit at that instant plus
    the execution time: the fit is monotone in [ready].
    @raise Invalid_argument when there is no incumbent. *)

(** {2 Probes} *)

(** The float results of a probe, stored flat. *)
type floats = { mutable start : float; mutable finish : float; mutable penalty : float }

(** A candidate placement: which replica goes where with which sources
    ([p_variant], a source row), what it costs, and its incoming
    transfers [0 .. p_n - 1] in the order {!evaluate} schedules them —
    by source finish time, then slot — with each one's source slot, source
    processor, duration and start. *)
type probe = private {
  mutable p_task : Dag.task;
  mutable p_copy : int;
  mutable p_proc : Platform.proc;  (** [-1] when the buffer holds none *)
  mutable p_variant : int array;
  mutable p_stage : int;
  mutable p_feasible : bool;
      (** Condition (1) of §4: with the replica added, the target
          processor's computing load and input-communication load, and
          every source processor's output-communication load, all fit
          within the period [Δ = 1/T]. *)
  p_at : floats;
      (** [start] and [finish] of the execution; [penalty] is the total
          amount by which the placement would push those loads beyond the
          period.  The best-effort mode ranks by it first, to pick the
          least-overloaded placement when condition (1) cannot be met
          anywhere (the paper's "we use other processors, at the risk of
          increasing the communication overhead"). *)
  mutable p_n : int;
  mutable p_src : int array;
  mutable p_src_proc : Platform.proc array;
  mutable p_dur : float array;
  mutable p_comm_start : float array;
}

val candidate : t -> probe
val incumbent : t -> probe
(** The two buffers.  Both change identity at every {!swap}: read them
    again after one. *)

val transfers : t -> proc:Platform.proc -> int array -> unit
(** Make the candidate the step's replica on [proc] with the sources of
    the row: record the row and list the off-processor transfers, sorted
    in place by source finish time, then slot. *)

val admission : t -> unit
(** Condition (1) and the overload penalty of the candidate, from its
    {!transfers} alone: both depend on the transfer durations, not on when
    the transfers run, so they are known before any timeline probe.

    The outgoing time is summed per source processor in a float array, in
    transfer order.  The penalty is the target's computing overflow, plus
    its input overflow, plus the output overflow of each source processor
    added in the order of that processor's first transfer. *)

val evaluate : t -> unit
(** Simulate the candidate on top of the committed timelines: its start,
    finish, stage and transfer starts.  Does not check condition (1) — see
    {!admission}.  The transfers' tentative port intervals go into probes
    owned by the state (one for the receive port, one per sender), cleared
    at the start of each call. *)

val swap : t -> unit
(** Exchange the candidate and the incumbent buffers: the candidate wins
    without a copy. *)

val commit : t -> unit
(** Apply the incumbent and empty it: place the replica in the mapping
    (its source list is built here, once per placement), charge loads,
    reserve the timeline intervals, record finish time, stage and kill
    set.
    @raise Invalid_argument when there is no incumbent, or on mapping
    inconsistencies. *)
