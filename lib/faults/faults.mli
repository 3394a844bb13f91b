(** Fault models beyond clean fail-stop: transient faults with
    retry/backoff, gray failures (stragglers, degraded links) and
    correlated failure domains.

    The paper's reliability model only knows permanent, independent,
    fail-silent processor crashes.  Real streaming deployments mostly
    die of something else: an execution or transfer that fails once and
    succeeds on retry (transient faults), a processor or link that keeps
    working but slowly (gray failures), and rack-level outages that take
    several processors at once (correlated failure domains).  This
    module is the pure description layer for all three — plain data
    plus deterministic draw functions, no simulator state — consumed by
    {!Engine} (transient + gray, through [Run.config.faults]),
    {!Failure_gen} (common-shock crash draws) and {!Reliability} (the
    [Correlated] model).

    Determinism: every probabilistic draw is a pure hash of
    [(seed, salt, key, attempt)] (a SplitMix64 finalizer), never a
    stateful stream.  Two runs of the same scenario agree bit-for-bit,
    and for a fixed key the set of failing attempts grows monotonically
    with the fault rate — the common-random-numbers property the
    monotonicity assertions lean on.  Processors are plain [int]
    indices so the module stays dependency-free. *)

(** Retry policy for transient faults: jitterless truncated exponential
    backoff.  A failed attempt [k] (1-based) is re-driven after
    [base_delay * multiplier^(k - 1)] time units, at most [max_retries]
    times; the [max_retries + 1]-th failure exhausts the budget and the
    work is abandoned (the instance, or the transfer chain, is lost). *)
module Backoff : sig
  type t = {
    max_retries : int;  (** re-drives after a failure; 0 = fail fast *)
    base_delay : float;  (** delay after the first failure (time units) *)
    multiplier : float;  (** geometric growth of successive delays *)
  }

  val none : t
  (** [{ max_retries = 0; base_delay = 0.; multiplier = 1. }]: every
      transient fault is immediately fatal to its attempt. *)

  val make :
    ?base_delay:float -> ?multiplier:float -> max_retries:int -> unit -> t
  (** [base_delay] defaults to [0.] (immediate retry), [multiplier]
      to [2.].
      @raise Invalid_argument when [max_retries < 0], [base_delay] is
      negative or not finite, or [multiplier] is negative or not
      finite. *)

  val delay : t -> attempt:int -> float
  (** Backoff after the [attempt]-th failed attempt (1-based):
      [base_delay *. multiplier ** (attempt - 1)], and exactly [0.]
      when [base_delay = 0.] whatever the multiplier.
      @raise Invalid_argument when [attempt < 1]. *)
end

(** Transient (soft) faults: an execution attempt or a transfer attempt
    fails, the work itself survives and can be retried.  Faults are
    drawn per attempt, either probabilistically (rate) or
    deterministically inside injected time windows, and attributed to
    the processor doing the work (the executor, or the sender's port). *)
module Transient : sig
  type t = {
    exec_rate : float;  (** per-attempt execution fault probability *)
    comm_rate : float;  (** per-attempt transfer fault probability *)
    exec_windows : (int * float * float) list;
        (** [(proc, t0, t1)]: every execution attempt starting on [proc]
            in [[t0, t1)] fails — injected deterministic faults, the
            transient analogue of [timed_failures] *)
    comm_windows : (int * float * float) list;
        (** [(proc, t0, t1)]: every transfer attempt committed by sender
            [proc] in [[t0, t1)] fails *)
    seed : int;  (** hash seed of the probabilistic draws *)
  }

  val none : t

  val exec_fails : t -> proc:int -> key:int -> attempt:int -> at:float -> bool
  (** Whether the [attempt]-th execution attempt (1-based) of the work
      unit [key] (the engine's instance index), starting on [proc] at
      time [at], suffers a transient fault.  Deterministic in all
      arguments; for a fixed [(key, attempt)] the answer is monotone in
      [exec_rate]. *)

  val comm_fails : t -> src:int -> key:int -> attempt:int -> at:float -> bool
  (** Same for a transfer attempt committed by sender [src]; [key] is
      the transfer's creation sequence number. *)
end

(** Gray failures: components that keep answering, slowly.  A straggler
    window multiplies the execution time of every attempt starting on
    the processor inside the window; a link window multiplies the
    transfer time of every transfer committed on the (src, dst) pair
    inside it.  Factors of overlapping windows compound. *)
module Gray : sig
  type window = {
    g_from : float;
    g_until : float;  (** active on [[g_from, g_until)] *)
    factor : float;  (** duration multiplier, > 0 (usually > 1) *)
  }

  type t = {
    stragglers : (int * window) list;  (** per-processor slowdowns *)
    links : ((int * int) * window) list;
        (** per-(src, dst) bandwidth degradations *)
  }

  val none : t
  val is_none : t -> bool

  val exec_factor : t -> proc:int -> at:float -> float
  (** Product of the straggler factors active on [proc] at [at];
      [1.0] when none. *)

  val comm_factor : t -> src:int -> dst:int -> at:float -> float
  (** Product of the link factors active on [(src, dst)] at [at]. *)
end

(** Correlated failure domains: a partition of the processors into
    racks (or power domains, switches...).  A domain-wide common shock
    kills every member at once; {!Failure_gen} draws shock lifetimes
    and {!Reliability} evaluates the induced Marshall–Olkin-style
    dependence exactly. *)
module Domains : sig
  type t

  val make : procs:int -> int list list -> t
  (** [make ~procs groups] partitions processors [0 .. procs - 1]:
      each listed group is one domain (in list order); processors not
      listed become singleton domains, in index order after the listed
      groups.  @raise Invalid_argument when a processor is out of range
      or listed twice, or a group is empty. *)

  val racks : size:int -> procs:int -> t
  (** Contiguous blocks of [size] processors ([0..size-1], [size..2
      size-1], ...; the last rack may be smaller).
      @raise Invalid_argument when [size < 1] or [procs < 0]. *)

  val count : t -> int
  (** Number of domains. *)

  val procs : t -> int
  (** Number of processors partitioned. *)

  val members : t -> int -> int list
  (** Processors of one domain, ascending. *)

  val domain_of : t -> int -> int
  (** The domain a processor belongs to. *)
end

(** The full fault scenario of one simulation run. *)
type t = {
  transient : Transient.t;
  retry : Backoff.t;  (** how transient faults are re-driven *)
  gray : Gray.t;
}

val none : t
(** No transient faults, no retries, no gray failures — the engine's
    default, bit-identical to the pre-faults behavior. *)

val is_none : t -> bool
(** No fault source at all (both transient rates zero, no transient
    window, and {!Gray.is_none}); the retry policy is irrelevant when
    nothing ever fails. *)

val validate : procs:int -> t -> unit
(** Validate the whole scenario against a platform of [procs]
    processors.  @raise Invalid_argument when a rate is outside [0, 1],
    a window is malformed (negative or non-finite bounds, [t1 < t0]) or
    names an out-of-range processor, a gray factor is not finite and
    positive, or the retry policy breaks the bounds of {!Backoff.make}. *)

val uniform : seed:int -> salt:int -> key:int -> attempt:int -> float
(** The deterministic draw under the probabilistic transient faults: a
    uniform in [[0, 1)] hashed from the four integers (SplitMix64
    finalizer).  Exposed for tests; [Transient] fails an attempt when
    [uniform ... < rate], which is what makes the failing set monotone
    in the rate for a fixed key. *)
