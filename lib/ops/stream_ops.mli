(** Long-horizon operations simulator: epochs, crashes, live recovery.

    The figure experiments evaluate a mapping on independent one-shot
    runs; this module instead {e operates} a mapping over a long horizon
    the way a deployment would.  Fail-stop crashes arrive with
    exponential lifetimes ({!Failure_gen}); the stream runs epoch by
    epoch, each epoch resuming the discrete-event engine from the
    previous surviving state ({!Engine.snapshot}).  When a processor
    hosting live replicas dies, the in-flight items it carried are lost,
    the stream pauses for a reconfiguration delay and
    {!Recovery_policy.react}, with its default retry budget (the whole
    chain), picks the best surviving service level — full-strength
    in-place restoration down to an unreplicated remap — or declares a
    terminal {!Outage} after which every remaining item is counted
    lost.

    Every epoch records what an operator would want on a dashboard:
    items injected/delivered/lost, peak and mean latency, downtime, the
    recovery decision and the surviving fault tolerance.  The run emits
    [ops.recovery.*] counters, histograms and spans (plus the engine's
    [sim.epoch.*] keys), all pre-registered so metric dumps expose them
    deterministically. *)

(** Burst-during-failure scenario: the open-system traffic knobs of the
    timeline.  With an [overload] the epochs run the engine in open mode
    — each replica owns a [queue_bound]-deep input queue with the given
    overflow [policy] — and after every restoration the upstream backlog
    flushes: arrivals run at [burst_factor ×] the nominal rate for
    [burst_window] time units before settling back.  Items shed by
    [Drop_newest] count as lost (and in {!report.dropped}). *)
type overload = {
  queue_bound : int;  (** per-replica input-queue capacity, ≥ 1 *)
  policy : Engine.Run.drop_policy;  (** full-queue behavior *)
  burst_factor : float;  (** post-recovery arrival-rate multiplier, ≥ 1 *)
  burst_window : float;  (** burst length after a restoration (time units) *)
}

(** Transient/gray fault operation: the engine-level scenario plus the
    escalation policy that turns repeated retry exhaustion into an
    eviction.  [engine_faults] names {e original} processors; each epoch
    reindexes it onto the current (possibly restricted) platform,
    dropping entries whose processor has left the deployment.  When a
    processor accumulates [eviction_threshold] retry exhaustions
    ({!Engine.fault_stats}[.exhausted_on]) across epochs, it is evicted:
    a synthetic fail-stop driven through {!Recovery_policy.react}, with
    the same downtime, service-level degradation and epoch record as a
    real crash (counted in {!report.evictions}, not
    {!report.crashes}).  Quiet stretches are chunked into
    [review_window]-long epochs so the ledger is reviewed periodically;
    crash-bounded epochs are reviewed only at the crash. *)
type fault_injection = {
  engine_faults : Faults.t;  (** transient + retry + gray scenario *)
  eviction_threshold : int;
      (** cumulative retry exhaustions on one processor that trigger
          its eviction, ≥ 1 *)
  review_window : float;
      (** how often the quiet-tail epochs review the exhaustion
          ledger (time units), > 0 *)
}

type config = {
  horizon : float;  (** simulated operation time (time units) *)
  hazard : Failure_gen.hazard;  (** crash arrival law *)
  reconfig_delay : float;
      (** stream downtime per recovery attempt (time units) *)
  max_items_per_epoch : int;
      (** cap on items simulated per epoch; slots beyond the cap are
          reported as [capped], not silently dropped *)
  overload : overload option;
      (** [None] (the default) runs closed epochs: each epoch's items
          enter on the period grid, as one [Engine.Run.Closed] run *)
  faults : fault_injection option;
      (** [None] (the default) runs fault-free epochs ([Faults.none])
          and never evicts *)
}

val default_config : config
(** 400 time units, uniform λ = 10⁻³, delay 5,
    at most 256 items per epoch, no overload, no fault injection. *)

type decision =
  | Ran_clean  (** no crash in the epoch *)
  | Restored of Recovery_policy.level
  | Outage of { attempts : int }

val decision_to_string : decision -> string

type epoch = {
  index : int;
  t_start : float;
  t_end : float;
  injected : int;
      (** items injected during the epoch, including slots lost to
          downtime (and, for an outage, the unserved tail) *)
  delivered : int;
  lost : int;  (** [injected - delivered] *)
  capped : int;  (** injection slots beyond [max_items_per_epoch] *)
  peak_latency : float;  (** worst delivered-item latency; [nan] if none *)
  mean_latency : float;  (** mean delivered-item latency; [nan] if none *)
  crash : (Platform.proc * float) option;
      (** the (original processor, time) crash closing the epoch *)
  downtime : float;  (** reconfiguration pause after the epoch *)
  decision : decision;
  tolerance : int;
      (** failures the epoch's mapping could still absorb when it ran *)
  mapping : Mapping.t;  (** the mapping the epoch ran with *)
}

type report = {
  epochs : epoch list;  (** in time order *)
  crashes : int;  (** crashes that hit live processors *)
  evictions : int;
      (** processors evicted after crossing the retry-exhaustion
          threshold; [0] without fault injection *)
  injected : int;
  delivered : int;
  dropped : int;
      (** items shed by the overload drop policy over the whole horizon
          (a subset of the lost items); [0] without an [overload] *)
  availability : float;
      (** [delivered / injected]; [1.0] when nothing was injected *)
  mean_latency : float;  (** over all delivered items; [nan] if none *)
  degraded_mean_latency : float;
      (** over delivered items from the first crash epoch onward;
          [nan] when no crash ever hit *)
  total_downtime : float;
  outage : bool;  (** service stopped before the horizon *)
}

val run :
  ?config:config -> rng:Rng.t -> throughput:float -> Mapping.t -> report
(** [run ~rng ~throughput m] operates the complete mapping [m] under the
    contractual [throughput] until the horizon.  Items are injected at
    the desired period while the current mapping sustains it, and at the
    mapping's achieved period when a degraded restoration runs slower.
    Deterministic for a given [rng] state.
    @raise Invalid_argument if [m] is incomplete, [throughput ≤ 0], or
    the config has a non-positive/non-finite horizon, a negative
    reconfiguration delay, a per-epoch item cap below 1, an overload
    with [queue_bound < 1], [burst_factor < 1] or a negative
    [burst_window], or a fault injection whose scenario fails
    {!Faults.validate}, whose [eviction_threshold < 1], or whose
    [review_window] is not positive and finite. *)
