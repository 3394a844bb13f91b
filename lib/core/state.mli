(** Incremental scheduling state shared by LTF and R-LTF.

    Wraps a partial {!Mapping.t} together with everything the algorithms
    probe at each placement step: per-processor computing loads [Σ_u],
    communication cycle loads [Cᴵ_u]/[Cᴼ_u], mutable one-port timelines
    for contention-aware finish-time estimation, committed replica finish
    times, and incremental pipeline stages.

    A placement is evaluated as a {!trial} (pure, no state change) and then
    {!commit}ted.  Trials schedule each incoming transfer earliest-fit on
    the pair (sender send port, receiver receive port) and the execution
    earliest-fit on the target processor, on top of the committed
    timelines; the trial's own transfers ride in {!Timeline.probe}s, so the
    committed timelines are only written by {!commit}. *)

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

val sigma : t -> Platform.proc -> float
val c_in : t -> Platform.proc -> float
val c_out : t -> Platform.proc -> float

val loads : t -> Loads.t
(** The incrementally maintained per-processor loads (Σ/Cᴵ/Cᴼ).  {!commit}
    charges them through the [Loads] primitives, so readers never pay a
    full [Loads.of_mapping] rewalk. *)

module Pset = Bitset
(** Kill sets are packed bitsets over the processor indices: [disjoint] /
    [union] / [cardinal] — the operations on the placement hot path — run
    in O(m/word_size) word steps instead of walking a balanced tree. *)

val support : t -> Replica.id -> Pset.t
(** The {e kill set} of a placed replica: the processors whose individual
    failure prevents it from producing its output — its own processor,
    plus (transitively) the kill set of every sole-source predecessor
    replica.  A predecessor fed by all [ε+1] replicas contributes nothing:
    no single failure can silence a full replica group whose kill sets are
    pairwise disjoint, and the scheduler maintains exactly that
    disjointness invariant per task (this is the locking discipline that
    makes the active replication scheme ε-fault-tolerant). *)

val support_of_sources :
  t ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  Pset.t
(** The kill set a replica would have if placed on [proc] with the given
    sources (all of which must be placed). *)

val send_ready : t -> Platform.proc -> float
(** Earliest instant the send port of the processor is free forever after —
    the key used to sort predecessor replicas in the one-to-one procedure. *)

(** A simulated placement of one replica. *)
type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_comms : (Replica.id * float * float * float) list;
      (** incoming transfers: source replica, start, duration, arrival *)
}

val evaluate :
  t ->
  task:Dag.task ->
  copy:int ->
  proc:Platform.proc ->
  sources:(Dag.task * Replica.id list) list ->
  trial
(** Simulate placing the replica on the processor with the given source
    sets (one entry per predecessor, each source already placed).  Does not
    check the throughput condition — see {!feasible}. *)

val feasible : t -> trial -> bool
(** Condition (1) of §4 for the trial: with the replica added, the target
    processor's computing load and input-communication load, and every
    source processor's output-communication load, all fit within the period
    [Δ = 1/T]. *)

val overload : t -> trial -> float
(** Total amount by which the trial would push the affected resource loads
    beyond the period; [0] iff {!feasible}.  Used by the best-effort
    scheduling mode to pick the least-overloaded placement when condition
    (1) cannot be met anywhere (the paper's "we use other processors, at
    the risk of increasing the communication overhead"). *)

val commit : t -> trial -> unit
(** Apply a trial: place the replica in the mapping, charge loads, reserve
    the timeline intervals, record finish time and stage.
    @raise Invalid_argument on mapping inconsistencies. *)
