type overload = {
  queue_bound : int;
  policy : Engine.Run.drop_policy;
  burst_factor : float;
  burst_window : float;
}

type fault_injection = {
  engine_faults : Faults.t;
  eviction_threshold : int;
  review_window : float;
}

type config = {
  horizon : float;
  hazard : Failure_gen.hazard;
  reconfig_delay : float;
  max_items_per_epoch : int;
  overload : overload option;
  faults : fault_injection option;
}

let default_config =
  {
    horizon = 400.0;
    hazard = Failure_gen.uniform ~lambda:1e-3;
    reconfig_delay = 5.0;
    max_items_per_epoch = 256;
    overload = None;
    faults = None;
  }

type decision =
  | Ran_clean
  | Restored of Recovery_policy.level
  | Outage of { attempts : int }

let decision_to_string = function
  | Ran_clean -> "clean"
  | Restored level -> "restored:" ^ Recovery_policy.level_to_string level
  | Outage { attempts } -> Printf.sprintf "OUTAGE(after %d attempts)" attempts

type epoch = {
  index : int;
  t_start : float;
  t_end : float;
  injected : int;
  delivered : int;
  lost : int;
  capped : int;
  peak_latency : float;
  mean_latency : float;
  crash : (Platform.proc * float) option;
  downtime : float;
  decision : decision;
  tolerance : int;
  mapping : Mapping.t;
}

type report = {
  epochs : epoch list;
  crashes : int;
  evictions : int;
  injected : int;
  delivered : int;
  dropped : int;
  availability : float;
  mean_latency : float;
  degraded_mean_latency : float;
  total_downtime : float;
  outage : bool;
  outage_clock : float;
}

let touch () =
  Recovery_policy.touch ();
  List.iter Obs.touch
    [
      "ops.recovery.crashes";
      "ops.recovery.epochs";
      "ops.recovery.items_lost";
      "ops.recovery.items_capped";
      "ops.evictions";
      "sim.epoch.resumes";
    ]

(* Number of injection instants [t0 + k·p] with [k ≥ 0] that fall strictly
   before [t1]; robust to the float grid landing exactly on the boundary. *)
let slots ~period t0 t1 =
  if t1 <= t0 || period <= 0.0 then 0
  else max 0 (int_of_float (Float.ceil (((t1 -. t0) /. period) -. 1e-9)))

let run ?(config = default_config) ~rng ~throughput m0 =
  if not (Mapping.is_complete m0) then
    invalid_arg "Stream_ops.run: incomplete mapping";
  if config.horizon <= 0.0 || not (Float.is_finite config.horizon) then
    invalid_arg "Stream_ops.run: horizon must be positive and finite";
  if config.reconfig_delay < 0.0 then
    invalid_arg "Stream_ops.run: negative reconfig_delay";
  if config.max_items_per_epoch < 1 then
    invalid_arg "Stream_ops.run: max_items_per_epoch < 1";
  if throughput <= 0.0 then invalid_arg "Stream_ops.run: throughput <= 0";
  (match config.overload with
  | None -> ()
  | Some o ->
      if o.queue_bound < 1 then
        invalid_arg "Stream_ops.run: overload queue_bound < 1";
      if not (Float.is_finite o.burst_factor) || o.burst_factor < 1.0 then
        invalid_arg "Stream_ops.run: overload burst_factor < 1";
      if not (Float.is_finite o.burst_window) || o.burst_window < 0.0 then
        invalid_arg "Stream_ops.run: negative overload burst_window");
  (match config.faults with
  | None -> ()
  | Some fi ->
      Faults.validate
        ~procs:(Platform.size (Mapping.platform m0))
        fi.engine_faults;
      if fi.eviction_threshold < 1 then
        invalid_arg "Stream_ops.run: eviction_threshold < 1";
      if not (Float.is_finite fi.review_window) || fi.review_window <= 0.0 then
        invalid_arg "Stream_ops.run: review_window must be positive and finite");
  Obs.with_span "ops.recovery.timeline" @@ fun () ->
  touch ();
  let plat0 = Mapping.platform m0 in
  let desired_period = 1.0 /. throughput in
  (* The whole failure timeline is drawn up front: processors are
     fail-stop (each crashes once, never repaired), so one exponential
     lifetime per processor fully determines the arrivals. *)
  let timeline =
    List.filter
      (fun (_, t) -> t < config.horizon)
      (Failure_gen.lifetimes ~rng config.hazard plat0)
  in
  (* Mutable operational state.  [procs] maps the current mapping's
     platform indices back to original processors (degraded remaps live on
     restricted survivor sub-platforms); [down] lists already-crashed
     processors in current indices (their replicas were moved away by the
     in-place restorations, but the engine still prunes them). *)
  let mapping = ref m0 in
  (* The engine program for the current mapping: fetched once here (from
     the shared compiled-program cache, so a timeline replayed on a
     mapping content seen before skips the compile) and refreshed only
     when a restoration swaps the mapping, so every epoch of a quiet
     stretch replays the same program.  [arena] holds the engine's run
     state across epochs — recreated with the program, reused by every
     epoch in between, so a quiet stretch allocates no slabs at all. *)
  let compiled = ref (Program_cache.program m0) in
  let arena = ref (Engine.Run_state.create !compiled) in
  let procs = ref (Array.init (Platform.size plat0) Fun.id) in
  let down = ref [] in
  let tolerance = ref (Mapping.eps m0) in
  let clock = ref 0.0 in
  let epochs = ref [] in
  let n_epochs = ref 0 in
  let crashes = ref 0 in
  let injected = ref 0 and delivered = ref 0 in
  let lat_sum = ref 0.0 and lat_n = ref 0 in
  let degraded_sum = ref 0.0 and degraded_n = ref 0 in
  let first_crash_seen = ref false in
  let total_downtime = ref 0.0 in
  let outage_at = ref None in
  (* The injection period of the current mapping: the desired one when the
     mapping sustains it, the achieved one when a degraded restoration
     runs slower (upstream backpressure). *)
  let period () = Float.max desired_period (Engine.program_period !compiled) in
  let record_epoch ~t_start ~t_end ~crash ~downtime ~decision
      ~(run_result : Engine.result option) ~n_items ~capped ~extra_lost =
    let ep_delivered = ref 0 and ep_sum = ref 0.0 and ep_peak = ref nan in
    (match run_result with
    | None -> ()
    | Some r ->
        Array.iter
          (function
            | Some l ->
                incr ep_delivered;
                ep_sum := !ep_sum +. l;
                if Float.is_nan !ep_peak || l > !ep_peak then ep_peak := l
            | None -> ())
          r.Engine.item_latency);
    let ep_injected = n_items + extra_lost in
    let ep_lost = ep_injected - !ep_delivered in
    injected := !injected + ep_injected;
    delivered := !delivered + !ep_delivered;
    lat_sum := !lat_sum +. !ep_sum;
    lat_n := !lat_n + !ep_delivered;
    if !first_crash_seen || crash <> None then begin
      degraded_sum := !degraded_sum +. !ep_sum;
      degraded_n := !degraded_n + !ep_delivered
    end;
    if crash <> None then first_crash_seen := true;
    total_downtime := !total_downtime +. downtime;
    Obs.incr "ops.recovery.epochs";
    Obs.incr ~by:ep_lost "ops.recovery.items_lost";
    Obs.incr ~by:capped "ops.recovery.items_capped";
    Obs.observe "ops.recovery.downtime" downtime;
    if !ep_delivered > 0 then Obs.observe "ops.recovery.latency_spike" !ep_peak;
    let ep =
      {
        index = !n_epochs;
        t_start;
        t_end;
        injected = ep_injected;
        delivered = !ep_delivered;
        lost = ep_lost;
        capped;
        peak_latency = !ep_peak;
        mean_latency =
          (if !ep_delivered = 0 then nan
           else !ep_sum /. float_of_int !ep_delivered);
        crash;
        downtime;
        decision;
        tolerance = !tolerance;
        mapping = !mapping;
      }
    in
    incr n_epochs;
    epochs := ep :: !epochs
  in
  (* Overload state: after a restoration the upstream backlog flushes, so
     arrivals run at [burst_factor ×] the nominal rate until
     [burst_until] — through a bounded queue that sheds or blocks. *)
  let burst_until = ref neg_infinity in
  let total_dropped = ref 0 in
  (* Current platform index of an original processor, or [-1] when the
     processor is absent from the current (possibly restricted) platform. *)
  let index_of orig_p =
    let found = ref (-1) in
    Array.iteri (fun i op -> if op = orig_p then found := i) !procs;
    !found
  in
  (* Transient/gray operation state.  The scenario names original
     processors; each epoch runs on the current platform, so the engine
     faults are reindexed per epoch (entries whose processor has left the
     deployment are dropped — probabilistic rates are unaffected).
     [exh_counts] accumulates per-original-processor retry exhaustions
     across epochs; crossing the eviction threshold escalates to a
     fail-stop eviction through the normal recovery chain. *)
  let exh_counts = Array.make (Platform.size plat0) 0 in
  let evictions = ref 0 in
  let current_faults () =
    match config.faults with
    | None -> Faults.none
    | Some fi ->
        let f = fi.engine_faults in
        let tw ws =
          List.filter_map
            (fun (u, t0, t1) ->
              let i = index_of u in
              if i >= 0 then Some (i, t0, t1) else None)
            ws
        in
        let t = f.Faults.transient in
        let transient =
          {
            t with
            Faults.Transient.exec_windows = tw t.Faults.Transient.exec_windows;
            comm_windows = tw t.Faults.Transient.comm_windows;
          }
        in
        let g = f.Faults.gray in
        let gray =
          {
            Faults.Gray.stragglers =
              List.filter_map
                (fun (u, w) ->
                  let i = index_of u in
                  if i >= 0 then Some (i, w) else None)
                g.Faults.Gray.stragglers;
            links =
              List.filter_map
                (fun ((s, d), w) ->
                  let i = index_of s and j = index_of d in
                  if i >= 0 && j >= 0 then Some ((i, j), w) else None)
                g.Faults.Gray.links;
          }
        in
        { f with Faults.transient; gray }
  in
  let absorb_exhaustions run_result =
    match (config.faults, run_result) with
    | Some _, Some r ->
        Array.iteri
          (fun i c ->
            if c > 0 then begin
              let orig = !procs.(i) in
              exh_counts.(orig) <- exh_counts.(orig) + c
            end)
          r.Engine.faults.Engine.exhausted_on
    | _ -> ()
  in
  let eviction_candidate () =
    match config.faults with
    | None -> None
    | Some fi ->
        let found = ref None in
        Array.iteri
          (fun orig c ->
            if !found = None && c >= fi.eviction_threshold then begin
              let cur = index_of orig in
              if cur >= 0 && not (List.mem cur !down) then
                found := Some (orig, cur)
            end)
          exh_counts;
        !found
  in
  (* Run the stream from the surviving-state snapshot at [!clock] until
     [t_end], injecting at the current period, with an optional fail-stop
     crash during the window. *)
  let play ~t_end ~crash_now =
    let p = period () in
    (* [traffic n] is the epoch's source for its first [n] items: the
       steady grid at the current period, or under an overload scenario
       an arrival trace mixing two deterministic rates — the burst period
       inside the post-recovery window, the nominal one after — through
       bounded queues.  Offsets are relative to the epoch snapshot. *)
    let wanted, traffic =
      match config.overload with
      | None ->
          ( slots ~period:p !clock t_end,
            fun n_items -> Engine.Run.Closed { n_items; period = Some p } )
      | Some o ->
          let fast = p /. o.burst_factor in
          let rec collect acc n t =
            if t >= t_end then (List.rev acc, n)
            else
              let step = if t < !burst_until then fast else p in
              collect ((t -. !clock) :: acc) (n + 1) (t +. step)
          in
          let offsets, wanted = collect [] 0 !clock in
          ( wanted,
            fun n_items ->
              Engine.Run.Open
                {
                  arrival =
                    Arrival.Trace (List.filteri (fun i _ -> i < n_items) offsets);
                  n_items;
                  rng = None;
                  queue_bound = Some o.queue_bound;
                  policy = o.policy;
                } )
    in
    let n_items = min wanted config.max_items_per_epoch in
    let run_result =
      if n_items = 0 then None
      else
        Some
          (Engine.simulate ~state:!arena
             ~config:
               {
                 Engine.Run.traffic = traffic n_items;
                 snapshot = Some { Engine.clock = !clock };
                 failed = !down;
                 timed_failures = Option.to_list crash_now;
                 (* epochs read latencies and fault stats, never the
                    per-transfer log *)
                 record_messages = false;
                 faults = current_faults ();
               }
             !compiled)
    in
    Option.iter
      (fun r -> total_dropped := !total_dropped + r.Engine.dropped)
      run_result;
    absorb_exhaustions run_result;
    (n_items, wanted - n_items, run_result)
  in
  let rec loop timeline =
    if !clock >= config.horizon then ()
    else
      match timeline with
      | [] ->
          (* Quiet tail: run out to the horizon in review windows (one
             window without fault injection) so the escalation policy
             gets a periodic look at the exhaustion ledger.  A processor
             that crossed the eviction threshold is evicted — a synthetic
             fail-stop driven through the normal recovery chain at the
             review instant. *)
          let window =
            match config.faults with
            | None -> config.horizon
            | Some fi -> fi.review_window
          in
          let rec quiet () =
            if !clock < config.horizon then begin
              let t_start = !clock in
              let t_end = Float.min config.horizon (!clock +. window) in
              let n_items, capped, run_result = play ~t_end ~crash_now:None in
              clock := t_end;
              record_epoch ~t_start ~t_end ~crash:None ~downtime:0.0
                ~decision:Ran_clean ~run_result ~n_items ~capped ~extra_lost:0;
              (match eviction_candidate () with
              | Some (orig_p, cur) ->
                  incr evictions;
                  Obs.incr "ops.evictions";
                  Obs.with_span "ops.recovery.epoch" (fun () ->
                      handle_crash ~orig_p ~t_c:!clock ~cur)
              | None -> ());
              quiet ()
            end
          in
          quiet ()
      | (orig_p, t_c) :: rest ->
          let cur = index_of orig_p in
          if cur < 0 || List.mem cur !down then
            (* The machine is not part of the current deployment (already
               crashed, or excluded by a degraded remap): its death is
               invisible to the stream. *)
            loop rest
          else begin
            incr crashes;
            Obs.incr "ops.recovery.crashes";
            Obs.with_span "ops.recovery.epoch" (fun () ->
                handle_crash ~orig_p ~t_c ~cur);
            loop rest
          end
  and handle_crash ~orig_p ~t_c ~cur =
    let t_start = !clock in
    let p_before = period () in
    (* Items injected before the crash run through the engine with the
       fail-stop event at [t_c]; in-flight work on the victim is lost and
       surfaces as lost items / latency spikes.  [t_c ≤ clock] means the
       machine died while the stream was already down reconfiguring after
       a previous crash — there is nothing to run. *)
    let n_items, capped, run_result =
      if t_c > !clock then play ~t_end:t_c ~crash_now:(Some (cur, t_c))
      else (0, 0, None)
    in
    clock := Float.max t_c !clock;
    let verdict =
      Recovery_policy.react ~throughput ~failed:(cur :: !down) !mapping
    in
    match verdict with
    | Recovery_policy.Restored o ->
        let downtime = float_of_int o.attempts *. config.reconfig_delay in
        (* Items that would have been injected while the stream was down
           for reconfiguration are lost at the pre-crash rate. *)
        let dt_lost = slots ~period:p_before !clock (!clock +. downtime) in
        let t_end = !clock +. downtime in
        record_epoch ~t_start ~t_end ~crash:(Some (orig_p, t_c)) ~downtime
          ~decision:(Restored o.level) ~run_result ~n_items ~capped
          ~extra_lost:dt_lost;
        mapping := o.mapping;
        compiled := Program_cache.program o.mapping;
        arena := Engine.Run_state.create !compiled;
        procs := Array.map (fun i -> !procs.(i)) o.procs;
        tolerance := o.tolerance;
        (match o.level with
        | Full_strength | Relaxed_throughput -> down := cur :: !down
        | Reduced_eps _ | Best_effort_remap ->
            (* The new mapping lives on the surviving sub-platform: every
               processor of the restricted platform is alive. *)
            down := []);
        (match config.overload with
        | Some ov ->
            (* The backlog accumulated during the outage flushes as a
               burst once the stream resumes. *)
            burst_until := t_end +. ov.burst_window
        | None -> ());
        clock := t_end
    | Recovery_policy.Outage { attempts } ->
        let downtime = float_of_int attempts *. config.reconfig_delay in
        (* Terminal: everything the stream should have delivered until the
           horizon is lost, at the rate the contract asked for. *)
        let tail_lost = slots ~period:desired_period !clock config.horizon in
        record_epoch ~t_start ~t_end:config.horizon
          ~crash:(Some (orig_p, t_c)) ~downtime ~decision:(Outage { attempts })
          ~run_result ~n_items ~capped ~extra_lost:tail_lost;
        outage_at := Some !clock;
        clock := config.horizon
  in
  loop timeline;
  let availability =
    if !injected = 0 then 1.0
    else float_of_int !delivered /. float_of_int !injected
  in
  {
    epochs = List.rev !epochs;
    crashes = !crashes;
    evictions = !evictions;
    injected = !injected;
    delivered = !delivered;
    dropped = !total_dropped;
    availability;
    mean_latency = (if !lat_n = 0 then nan else !lat_sum /. float_of_int !lat_n);
    degraded_mean_latency =
      (if !degraded_n = 0 then nan
       else !degraded_sum /. float_of_int !degraded_n);
    total_downtime = !total_downtime;
    outage = Option.is_some !outage_at;
    outage_clock = Option.value !outage_at ~default:nan;
  }
