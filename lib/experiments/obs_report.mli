(** The documented metric key set, and validation of metric dumps against
    it — the contract behind [bin/experiments.exe --check-metrics].

    A profiling run of the ["latency"] experiment (the sampled fig3
    pass plus an event-driven replay) followed by the ["recovery"] experiment (the
    operations timelines) and the ["traffic"] experiment (open-system
    queue metrics) must produce every key listed here; CI validates one
    such dump, so renaming or dropping an instrumentation point breaks
    the build instead of downstream dashboards.  The lists are the
    single source of truth that EXPERIMENTS.md documents. *)

val required_counters : string list
(** [core.placement_probes] (one per {!State.evaluate} the scheduler
    makes, the timeline probe), [core.probe_prunes] (candidates skipped before the probe
    because their floors or penalty already lose),
    [core.feasibility_rejections] (condition-(1) refusals),
    [core.one_to_one_calls] / [core.general_calls] (placement branch
    invocations), [core.commits], [core.chunks], [sim.events_popped],
    [sim.runs], [sim.failures_injected], [sim.crash.draws],
    [sim.crash.defeats] (draws that killed every replica of an exit
    task), [sim.epoch.resumes] (engine runs resumed from a non-boot
    snapshot), the open-system family — [sim.drops] (items shed under
    [Drop_newest]), [sim.queue.enqueued] (queue-slot charges) and
    [sim.queue.blocked] (admissions and local hand-offs that found a
    full queue) — the recovery-engine family — [ops.recovery.crashes],
    [ops.recovery.epochs], [ops.recovery.attempts],
    [ops.recovery.outages] and one [ops.recovery.restored.<level>] per
    degradation level — the exact-calculus family — [rel.analyses] (one
    per [Reliability.analyze]) and [rel.enumerations] (one per
    uniform-crash enumeration sweep, which a [Reliability.t] runs at most
    once per crash count) — and [exp.trials]. *)

val required_histograms : string list
(** [core.chunk_size] (tasks per chunk β), [sim.heap_size] (event-heap
    occupancy after every push — its [max] is the high-water mark),
    [sim.epoch.items] (items injected per engine run under the epoch
    API), [sim.queue.occupancy] (per-replica input-queue depth sampled
    at every charge of an open-system run — its [max] is the high-water
    mark) and [ops.recovery.downtime] (reconfiguration pause per epoch,
    observed as 0 for clean epochs). *)

val required_spans : string list
(** [core.scheduler.chunk], [core.ltf.run], [core.rltf.run],
    [core.rltf.derive], [sim.engine.run], [sim.crash.sample],
    [ops.recovery.timeline] (one whole operations run),
    [ops.recovery.epoch] (crash handling within it), [exp.trial].  One
    dynamic [exp.fig.<name>] span per figure is additionally required by
    {!validate}. *)

val validate : Obs.Registry.t -> (unit, string list) result
(** Check that every required key is present (counters may be zero; they
    are pre-registered by the instrumented entry points precisely so
    presence is deterministic).  [Error] lists every missing key. *)

val validate_string : string -> (unit, string list) result
(** Parse a {!Obs.Registry.to_json} dump and {!validate} it. *)
