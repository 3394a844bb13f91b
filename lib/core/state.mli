(** Incremental scheduling state shared by LTF and R-LTF.

    Wraps a partial {!Mapping.t} together with everything the algorithms
    probe at each placement step: per-processor computing loads [Σ_u],
    communication cycle loads [Cᴵ_u]/[Cᴼ_u], mutable one-port timelines
    for contention-aware finish-time estimation, committed replica finish
    times, and incremental pipeline stages.

    A placement is judged in two steps, neither of which changes the state.
    Its {!transfers} decide condition (1) and the overload penalty through
    {!admission}, without touching a timeline; only then does {!evaluate}
    probe the timelines for a {!trial}, which is then {!commit}ted.  Trials
    schedule each incoming transfer earliest-fit on the pair (sender send
    port, receiver receive port) and the execution earliest-fit on the
    target processor, on top of the committed timelines; the trial's own
    transfers ride in {!Timeline.probe}s that the state owns and reuses
    from one trial to the next, so the committed timelines are only
    written by {!commit}.  The state is therefore single-threaded: one
    schedule, one domain. *)

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

val support_of_sources :
  t ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  Bitset.t
(** The kill set a replica would have if placed on [proc] with the given
    sources (all of which must be placed). *)

val send_ready : t -> Platform.proc -> float
(** Earliest instant the send port of the processor is free forever after —
    the key used to sort predecessor replicas in the one-to-one procedure. *)

type transfer = {
  tr_src : Replica.id;
  tr_proc : Platform.proc;  (** the source replica's processor *)
  tr_dur : float;  (** transfer time over the link to the target *)
}

(** A simulated placement of one replica. *)
type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_transfers : transfer array;  (** the incoming transfers, in probe order *)
  t_comm_starts : float array;
      (** the start of each incoming transfer (same indexing); it arrives
          [tr_dur] later *)
}

val transfers :
  t ->
  task:Dag.task ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  transfer array
(** The off-processor transfers of placing a replica of [task] on [proc]
    with the given source sets (each source already placed), sorted by
    source finish time, then replica id: the order {!evaluate} schedules
    them in. *)

type admission = {
  feasible : bool;
      (** Condition (1) of §4: with the replica added, the target
          processor's computing load and input-communication load, and
          every source processor's output-communication load, all fit
          within the period [Δ = 1/T]. *)
  penalty : float;
      (** Total amount by which the placement would push those loads beyond
          the period.  The best-effort mode ranks by it first, to pick the
          least-overloaded placement when condition (1) cannot be met
          anywhere (the paper's "we use other processors, at the risk of
          increasing the communication overhead"). *)
}

val admission : t -> task:Dag.task -> proc:Platform.proc -> transfer array -> admission
(** Condition (1) and the overload penalty of a placement, from its
    {!transfers} alone: both depend on the transfer durations, not on when
    the transfers run, so they are known before any timeline probe.

    The outgoing time is summed per source processor in a float array, in
    transfer order.  The penalty is the target's computing overflow, plus
    its input overflow, plus the output overflow of each source processor
    added in the order of that processor's first transfer. *)

type floor_data
(** The source replicas a placement step may draw from, per predecessor of
    the task, with their volume, finish, stage and host read once into
    flat arrays. *)

val floor_data :
  t -> task:Dag.task -> (Dag.task * Replica.id list) list -> floor_data
(** [floor_data s ~task sources]: the admissible replicas of each
    predecessor of [task] (all placed). *)

val iter_hosts : floor_data -> (Platform.proc -> unit) -> unit
(** Apply the function to the host of every listed replica, predecessor by
    predecessor; a host that carries several of them is visited once per
    replica. *)

val stage_floor : floor_data -> proc:Platform.proc -> int
(** A lower bound on [t_stage] of every trial of the task on [proc] whose
    source sets draw at least one admissible replica per predecessor: the
    latest per-predecessor minimum of the source stage, +1 for a remote
    source. *)

val finish_floor : t -> floor_data -> proc:Platform.proc -> float
(** A lower bound on [t_finish] of the same trials.  The data cannot be
    ready before the latest per-predecessor earliest arrival, and the
    finish floor is the processor timeline's earliest fit at that instant
    plus the execution time: {!Timeline.earliest_fit} is monotone in
    [ready]. *)

val evaluate :
  t ->
  task:Dag.task ->
  copy:int ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  transfers:transfer array ->
  trial
(** Simulate placing the replica on the processor with the given source
    sets (one entry per predecessor, each source already placed) and their
    {!transfers}.  Does not check condition (1) — see {!admission}.  The
    transfers' tentative port intervals go into probes owned by the state
    (one for the receive port, one per sender), cleared at the start of
    each call, so a probe builds no list and no closure: besides the
    returned trial it allocates a few boxed floats per transfer, and
    nothing per timeline interval it passes. *)

val commit : t -> trial -> unit
(** Apply a trial: place the replica in the mapping, charge loads, reserve
    the timeline intervals, record finish time and stage.
    @raise Invalid_argument on mapping inconsistencies. *)
