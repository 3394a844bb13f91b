(** Discrete-event execution of a replicated mapping under the
    bi-directional one-port model.

    The engine plays the streaming execution of consecutive data items
    through a complete mapping, with optional fail-silent processor
    failures effective from time 0.  Semantics:

    - items arrive when an {!Arrival} process says they do, each replica
      owns a bounded FIFO input queue, and a full queue exerts
      backpressure (see {!Run}); the paper's {e closed-system} steady
      state, item [k] entering at time [k · period], is the degenerate
      case of a deterministic process through unbounded queues;
    - a replica instance (item, task, copy) is {e dead} when its processor
      failed or when, for some predecessor task, every replica in its source
      set is dead; dead instances never execute nor send;
    - an alive instance becomes {e enabled} once, for every predecessor, the
      data of at least one alive source replica has reached its processor
      (local outputs are available the instant the source finishes);
    - each processor runs one instance at a time, picking among enabled
      instances the one with the lowest item index and then the highest task
      priority (bottom level on averaged weights), so earlier items drain
      first;
    - a finished instance sends one message per consumer replica on a remote
      processor; a message occupies the sender's send port and the
      receiver's receive port for [volume / bandwidth] time units, both
      ports being single-occupancy (messages are started greedily, earliest
      feasible first, ties broken by destination priority then identifier);
    - computation and communication overlap fully.

    With [n_items = 1] and actual weights this yields the paper's "real
    execution time for a given schedule" used in the crash experiments of
    §5.

    The engine is split into a {e compile} phase and a {e run} phase.
    {!compile} flattens the mapping + DAG into dense int-indexed tables
    (dense replica ids, CSR consumer and source-set arrays, precomputed
    execution and transfer durations, task priorities, the achieved
    period) built once per mapping; {!simulate} plays any number of
    scenarios — crash draws, resumed epochs, traffic profiles — against
    the same program.  Every scenario knob lives in one {!Run.config}
    record, and {!simulate} is the only way to run one. *)

(** Surviving-state snapshot an epoch resumes from (the operations layer
    drives one {!simulate} per epoch instead of replaying from time 0):
    [clock] is the absolute time the epoch starts — item [k] of the run is
    injected at [clock + k · period] (closed) or [clock + offset k] (open)
    and every failure instant is interpreted on the same absolute axis.
    A processor that is dead from the start of the epoch goes in
    {!Run.config.failed}. *)
type snapshot = { clock : float }

type instance = { item : int; rep : Replica.id }

type message = {
  msg_src : instance;
  msg_dst : instance;
  msg_start : float;
  msg_finish : float;
}

(** Fault-model accounting of one run: what the transient / gray fault
    machinery actually did.  All zeros (and an empty [exhausted_on])
    when the run's {!Faults.t} is {!Faults.none} — the fault-free fast
    path does not allocate the ledger. *)
type fault_stats = {
  retries : int;  (** re-driven attempts (execution + transfer) *)
  backoff_time : float;  (** total backoff delay inserted before retries *)
  exec_faults : int;  (** transient execution faults suffered *)
  comm_faults : int;  (** transient transfer faults suffered *)
  exhausted : int;  (** work units abandoned after the retry budget *)
  exhausted_on : int array;
      (** per-processor exhaustion counts (executor for execution
          faults, sender for transfer faults) — the signal the
          operations layer's eviction policy reads *)
  slowed_attempts : int;  (** executions stretched by a straggler window *)
  degraded_transfers : int;  (** transfers stretched by a link window *)
}

type result = {
  start_time : (int -> Replica.id -> float option);
      (** execution start of an instance; [None] when dead *)
  finish_time : (int -> Replica.id -> float option);
  item_latency : float option array;
      (** per item: availability time of the last exit task minus the item's
          arrival time (sojourn — in the open mode it includes any wait in
          the source backlog); [None] when some exit task lost all replicas,
          the item was shed, or it was still stalled at the source when the
          run drained *)
  period : float;
      (** injection period of a closed run; the program's achieved period
          in the open mode (where arrivals, not a period, pace the run) *)
  makespan : float;  (** time the last event completed *)
  messages : message list;  (** completed transfers, by start time *)
  arrivals : float array;
      (** absolute arrival instant of each item (closed mode: the
          injection grid [clock + k · period]) *)
  injections : float array;
      (** absolute instant each item was admitted into the pipeline;
          [nan] when it was shed or still stalled.  Closed mode: equals
          [arrivals]. *)
  dropped : int;  (** items shed by [Drop_newest]; [0] in closed mode *)
  stalled : int;
      (** items still blocked at the source when the run drained
          (a [Block]ed source wedged by a crashed shard); [0] closed *)
  peak_queue : int;
      (** high-water per-replica input-queue occupancy; [0] closed *)
  stall_time : float;
      (** total backpressure wait [Σ (injection - arrival)] over the
          admitted items; [0.] closed *)
  faults : fault_stats;
      (** what the fault model did to this run; all zeros when the
          config's [faults] is {!Faults.none} *)
}

type program
(** A mapping compiled for repeated simulation: immutable dense tables
    shared by every run.  Compile once per mapping, then call
    {!simulate} per crash draw, epoch or traffic profile. *)

val compile : Mapping.t -> program
(** Flatten the mapping into a {!program}.  Performs all per-mapping work:
    priorities (bottom levels on averaged weights), the consumer table and
    predecessor index as CSR arrays, per-replica execution and transfer
    durations, and the mapping's achieved period (the default [?period]).
    @raise Invalid_argument if the mapping is incomplete. *)

val program_mapping : program -> Mapping.t
(** The mapping the program was compiled from. *)

val program_period : program -> float
(** The mapping's achieved period, cached at compile time; equals
    [Metrics.period (program_mapping p)]. *)

val program_graph : program -> Replica_graph.t
(** The replica graph {!compile} built the program from, kept so callers
    that need the liveness rule ({!Replica_graph.depth}) pay no second
    compile. *)

(** The one run-scenario record: traffic (closed or open), failures,
    epoch snapshot and fault model for a single {!simulate} call. *)
module Run : sig
  (** What happens when an item arrives and an entry replica's input
      queue is full. *)
  type drop_policy =
    | Block
        (** the source blocks (backpressure): the item waits in a FIFO
            backlog and is admitted when every live entry replica has
            room; its sojourn keeps growing while it waits *)
    | Drop_newest
        (** the arriving item is shed immediately (load shedding);
            counted in {!result.dropped} and in the [sim.drops]
            counter *)

  type traffic =
    | Closed of { n_items : int; period : float option }
        (** the steady-state source: item [k] injected at
            [clock + k · period] ([period] defaults to the program's
            achieved period).  {!simulate} lowers it onto the open path
            as [Arrival.Deterministic { period }] through unbounded
            queues with {!Block} — nothing ever waits at the source —
            and reports the resolved [period] with [peak_queue],
            [stalled] and [stall_time] all [0]. *)
    | Open of {
        arrival : Arrival.t;
        n_items : int;
        rng : Rng.t option;
            (** consumed by randomized arrival processes; may be [None]
                for [Deterministic] / [Trace] *)
        queue_bound : int option;
            (** per-replica input-queue capacity; [None] = unbounded.
                An instance occupies its replica's queue from the moment
                data is first committed toward it (or, for an entry
                task, from admission) until it finishes executing.
                Transfers towards a full replica wait — occupying their
                sender's attention and eventually the source — unless
                the destination instance is already in the queue (its
                remaining inputs must flow or the pipeline would
                deadlock). *)
        policy : drop_policy;
      }
        (** the open-system source: items arrive per [arrival], are
            admitted FIFO when every live entry replica has queue room,
            and otherwise block or shed per [policy] *)

  type config = {
    traffic : traffic;
    snapshot : snapshot option;
        (** [None] = a fresh stream, [{ clock = 0.0 }].  [Some s]
            resumes at [s.clock], and the run records
            [sim.epoch.resumes] (when the clock is positive) and a
            [sim.epoch.items] histogram sample. *)
    failed : Platform.proc list;
        (** fail-silent from time 0 (the paper's §5 failure model): the
            replicas on these processors are pruned statically.  The
            operations layer resumes its epochs with [[]]: its recovery
            leaves no replica on a processor that crashed earlier.
            Counted in [sim.failures_injected] with [timed_failures]. *)
    timed_failures : (Platform.proc * float) list;
        (** fail-stop crashes mid-stream: work or transfers that would
            complete strictly after the processor's crash instant are
            lost, in-flight messages from the crashed sender never
            arrive, and nothing starts on it afterwards; results
            produced up to the crash remain valid.  A crash at or
            before the snapshot clock is fail-silent-from-the-start:
            the replicas on that processor are pruned statically. *)
    record_messages : bool;
        (** [false] skips the per-transfer message log entirely:
            {!result.messages} comes back [[]] and the run allocates no
            per-message records.  Every other field of the result is
            bit-identical to a [true] run — the gate exists for draw
            loops (crash sampling, epochs) that never read the log.
            The builders default to [true]. *)
    faults : Faults.t;
        (** transient faults, retry policy and gray failures applied to
            the run.  {!Faults.none} (the builders' default) takes a
            fast path that touches no fault machinery.  Semantics: a transient execution fault consumes the whole
            attempt duration on its processor before being detected (a
            timeout), a transient transfer fault holds both ports for
            the whole attempt; retries are re-driven after the backoff
            delay and charged against the same one-port model, so
            faults genuinely inflate latency.  A work unit that fails
            [max_retries + 1] times is abandoned: the instance (and
            everything downstream of it that has no other alive source)
            never completes, and the exhaustion is counted against its
            processor in {!result.faults}[.exhausted_on].  Gray
            straggler / link windows multiply the duration of attempts
            starting inside them. *)
  }

  val closed : ?n_items:int -> ?period:float -> unit -> config
  (** A closed-system config with no failures and no snapshot (a fresh
      stream); set those by record update, [{ (Run.closed ()) with failed }].
      [n_items] defaults to 1. *)

  val open_ :
    ?queue_bound:int ->
    ?policy:drop_policy ->
    ?rng:Rng.t ->
    n_items:int ->
    Arrival.t ->
    config
  (** An open-system config with no failures and no snapshot (a fresh
      stream).
      [queue_bound] defaults to unbounded and [policy] to {!Block} — the
      degenerate point where a [Deterministic] arrival process is
      exactly the [Closed] lowering. *)

  val with_faults : Faults.t -> config -> config
  (** [{ config with faults }] — attach a fault scenario to any
      config. *)

  val without_messages : config -> config
  (** [{ config with record_messages = false }] — turn the message log
      off for a draw loop. *)
end

(** The reusable run-state arena: every per-run array slab the engine
    needs (instance tables, port state, ready/pending heaps, the event
    queue, the message pool) and the run's scalars, allocated once per
    program and reused across runs.  A draw loop — crash sampling, resumed epochs, traffic
    sweeps — creates one arena and passes it to every {!simulate} call,
    reducing per-draw allocation to the handful of words of the result
    record itself.  The message pool is sized by the transfers pending
    or in flight at one time, not by the transfers a run creates: a
    transfer's slot is reused once it arrives, is lost to a crash or
    exhausts its retries. *)
module Run_state : sig
  type t

  val create : program -> t
  (** An arena sized for [program]'s processor and replica counts.  The
      per-item slabs start at single-item capacity and grow on demand
      (geometrically, so a sweep over increasing [n_items] settles).
      Counted under [sim.arena.creates].  {!simulate} validates the
      config first and only then re-initializes every slab range and
      scalar the run uses, so a reused arena — even one a rejected config
      was passed to — is bit-identical to a fresh one. *)
end

val simulate : ?state:Run_state.t -> config:Run.config -> program -> result
(** Play one scenario against a compiled program.  A program holds no
    per-run state, so it may be reused across any number of calls.

    [?state] supplies a reusable {!Run_state} arena; omitted, a private
    one is created for the run.  Results are bit-identical with and
    without an arena, and at any reuse count.  {b Validity}: the
    result's [start_time] / [finish_time] closures read the arena's
    slabs, so they are valid only until the next run on the same arena;
    [item_latency] and every other field are plain values and stay valid
    forever.  Arenas are single-threaded — give
    each domain its own.  Reuses are counted under [sim.arena.reuses].

    Every run materializes its arrival process ({!Arrival.times}; a
    [Closed] config is lowered to a deterministic one first), admits
    items FIFO against the per-replica queue bound, and accounts
    backpressure ({!result.stall_time}), load shedding
    ({!result.dropped}) and queue occupancy ({!result.peak_queue});
    when a queue frees, waiting in-pipeline data beats new source
    admissions.  Runs record [sim.queue.enqueued], [sim.queue.blocked],
    [sim.drops] and the [sim.queue.occupancy] histogram.

    Event order: arrivals are read from a cursor over the materialized
    (nondecreasing) arrival instants, not filed as events, so the event
    heap — and the [sim.heap_size] histogram — holds only in-flight
    work.  The clock jumps to the earlier of the next arrival and the
    heap top; when they tie, every arrival at that instant is handled
    before any other event there, in item order, and all simultaneous
    events are handled before any dispatch decision.  Each handled
    arrival counts in [sim.events_popped].  Two wake-up flags skip
    dispatches that cannot change anything.  The transfer scan reruns
    after a new or requeued pending transfer whose send port is alive
    and free and whose receive port is free or dead, the end of a
    transfer (arrival, failed attempt or crash loss: the only ways a
    port frees), an occupancy release when the last scan that
    committed nothing left a transfer waiting on queue room alone (room
    belongs to the destination replica, so only a release gives it),
    or the clock crossing a timed-failure instant.  The source backlog
    is re-checked at run start, after an entry replica's occupancy
    release, or at a timed-failure crossing; a failed check parks it.  Charging a queue
    sets neither flag: it only raises occupancy, on a queue that had
    room, so it can unblock neither a transfer nor the source.
    @raise Invalid_argument (naming [Engine.simulate]) if [n_items < 1],
    a closed [period] is negative or not finite, a processor in
    [failed] or [timed_failures] is outside [0, m), a
    failure time is negative or NaN, a processor appears twice in
    [timed_failures], the snapshot clock is negative or not finite, an
    open config has [queue_bound < 1] or an arrival process that needs
    randomness with [rng = None], or [?state] was created for a program
    of a different shape. *)

val sojourns : result -> float list
(** The delivered items' sojourn latencies in item order — the sample
    the percentile summaries ({!Stats} in the experiment layer) are
    computed over.  Shed, stalled and defeated items are absent. *)

val sojourns_into : result -> float array -> int
(** Allocation-free {!sojourns}: write the delivered sojourns into a
    caller-owned buffer (at least [Array.length item_latency] long) and
    return how many were written — the prefix length the quantile
    helpers ([Stats.quantiles_slice]) consume.  A sweep allocates the
    buffer once and reuses it across runs.
    @raise Invalid_argument when the buffer is too short. *)

val sustained_throughput : result -> float option
(** [(n - 1) / (t_last - t_first)] over the items that completed, using
    exit-availability times ([arrival + sojourn]); [None] when fewer
    than two items completed.  Measures the throughput the pipeline
    actually sustains. *)
