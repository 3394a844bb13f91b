let required_counters =
  [
    "core.placement_probes";
    "core.probe_prunes";
    "core.feasibility_rejections";
    "core.one_to_one_calls";
    "core.general_calls";
    "core.commits";
    "core.chunks";
    "sched.loads.full_recomputes";
    "sched.loads.incremental_updates";
    "sim.events_popped";
    "sim.runs";
    "sim.compiles";
    "sim.failures_injected";
    "sim.crash.draws";
    "sim.crash.defeats";
    "sim.epoch.resumes";
    "sim.drops";
    "sim.queue.enqueued";
    "sim.queue.blocked";
    "sim.retries";
    "sim.gray.slowdowns";
    "sim.gray.degradations";
    "sim.faults.transient";
    "sim.faults.exhausted";
    "sim.cache.hits";
    "sim.cache.misses";
    "sim.arena.creates";
    "sim.arena.reuses";
    "ops.evictions";
    "ops.recovery.crashes";
    "ops.recovery.epochs";
    "ops.recovery.attempts";
    "ops.recovery.outages";
    "ops.recovery.restored.full";
    "ops.recovery.restored.relaxed";
    "ops.recovery.restored.reduced_eps";
    "ops.recovery.restored.best_effort";
    "rel.analyses";
    "rel.enumerations";
    "exp.trials";
  ]

let required_histograms =
  [
    "core.chunk_size";
    "sim.heap_size";
    "sim.epoch.items";
    "sim.queue.occupancy";
    "sim.retry_backoff_time";
    "ops.recovery.downtime";
    "rel.defeat_cuts";
  ]

let required_spans =
  [
    "core.scheduler.chunk";
    "core.ltf.run";
    "core.rltf.run";
    "core.rltf.derive";
    "sim.engine.run";
    "sim.crash.sample";
    "ops.recovery.timeline";
    "ops.recovery.epoch";
    "rel.analyze";
    "exp.trial";
  ]

let fig_span_prefix = "exp.fig."

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let validate reg =
  let have_counter n = List.mem_assoc n (Obs.Registry.counters reg) in
  let have_histogram n = Option.is_some (Obs.Registry.histogram reg n) in
  let have_span n = Option.is_some (Obs.Registry.span_stats reg n) in
  let missing kind have names =
    List.filter_map
      (fun n -> if have n then None else Some (kind ^ " " ^ n))
      names
  in
  let errors =
    missing "counter" have_counter required_counters
    @ missing "histogram" have_histogram required_histograms
    @ missing "span" have_span required_spans
    @
    if
      List.exists
        (fun (n, _) -> starts_with ~prefix:fig_span_prefix n)
        (Obs.Registry.spans reg)
    then []
    else [ "span " ^ fig_span_prefix ^ "<figure>" ]
  in
  match errors with [] -> Ok () | _ -> Error errors

let validate_string s =
  match Obs.Registry.of_json s with
  | Error e -> Error [ "invalid metrics JSON: " ^ e ]
  | Ok reg -> validate reg
