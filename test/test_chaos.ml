(* The chaos harness: seed-pinned long-horizon operation of R-LTF
   mappings under escalating failure pressure.  Every timeline is
   deterministic (pinned seeds, pinned sweep), so the assertions are
   exact, not statistical:

   - the recovery engine never throws across hundreds of epochs;
   - every epoch that is not a terminal outage runs a structurally valid
     mapping, fault-tolerant to the tolerance it advertises;
   - per-epoch accounting is sane (downtime >= 0, delivered <= injected,
     availability in [0,1]);
   - for a fixed seed, availability is monotonically non-increasing in
     the failure rate — the common-random-numbers design of
     Failure_gen.lifetimes makes the crash sets nested across the sweep,
     so more pressure can only lose more items. *)

open Test_support

let case = Fixtures.case
let check_true = Fixtures.check_true

let seeds = [ 11; 23; 37; 51; 64; 78; 86; 99 ]

(* Failure pressure in crashes per processor per 1000 injected items;
   increasing, for the monotonicity assertion. *)
let pressures = [ 2.0; 5.0; 10.0 ]

let horizon_items = 100

let spec =
  {
    Paper_workload.default_spec with
    Paper_workload.tasks_range = (20, 40);
    m = 8;
  }

let eps = 1

let mapping_of seed =
  let rng = Rng.create ~seed in
  let inst = Spec.generate (Spec.paper spec) ~rng ~granularity:1.0 () in
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:inst.Paper_workload.dag
       ~platform:inst.Paper_workload.plat ~eps
       ~throughput:(Paper_workload.throughput ~eps))

let operate ?(overload = None) ?(faults = None) ~seed ~pressure mapping =
  let throughput = Paper_workload.throughput ~eps in
  let p = Float.max (1.0 /. throughput) (Metrics.period mapping) in
  let config =
    {
      Stream_ops.horizon = float_of_int horizon_items *. p;
      hazard = Failure_gen.uniform ~lambda:(pressure /. (1000.0 *. p));
      reconfig_delay = 2.0 *. p;
      max_items_per_epoch = horizon_items + 8;
      overload;
      faults;
    }
  in
  (* The operations RNG depends on the seed only, never on the pressure:
     equal generator states across the sweep are what make the crash
     sets nested (common random numbers). *)
  let rng = Rng.create ~seed:(0x5EED + seed) in
  Stream_ops.run ~config ~rng ~throughput mapping

let check_epoch ~seed ~pressure (ep : Stream_ops.epoch) =
  let ctx = Printf.sprintf "seed %d pressure %.1f epoch %d" seed pressure in
  check_true (ctx ep.Stream_ops.index ^ ": downtime >= 0")
    (ep.Stream_ops.downtime >= 0.0);
  check_true (ctx ep.Stream_ops.index ^ ": delivered <= injected")
    (ep.Stream_ops.delivered <= ep.Stream_ops.injected
    && ep.Stream_ops.delivered >= 0);
  check_true (ctx ep.Stream_ops.index ^ ": lost accounts for the rest")
    (ep.Stream_ops.lost = ep.Stream_ops.injected - ep.Stream_ops.delivered);
  check_true (ctx ep.Stream_ops.index ^ ": time moves forward")
    (ep.Stream_ops.t_end >= ep.Stream_ops.t_start);
  match ep.Stream_ops.decision with
  | Stream_ops.Outage _ -> ()
  | Stream_ops.Ran_clean | Stream_ops.Restored _ -> (
      (match Validate.structure ep.Stream_ops.mapping with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "%s: invalid mapping: %s"
            (ctx ep.Stream_ops.index)
            (Validate.error_to_string e));
      if ep.Stream_ops.tolerance > 0 then
        match Validate.fault_tolerance ep.Stream_ops.mapping with
        | [] -> ()
        | e :: _ ->
            Alcotest.failf "%s: tolerance %d not honoured: %s"
              (ctx ep.Stream_ops.index)
              ep.Stream_ops.tolerance
              (Validate.error_to_string e))

let chaos_tests =
  [
    case "hundreds of epochs survive escalating failure pressure" (fun () ->
        let total_epochs = ref 0 and total_crashes = ref 0 in
        List.iter
          (fun seed ->
            let mapping = mapping_of seed in
            let availabilities =
              List.map
                (fun pressure ->
                  let report = operate ~seed ~pressure mapping in
                  total_epochs :=
                    !total_epochs + List.length report.Stream_ops.epochs;
                  total_crashes := !total_crashes + report.Stream_ops.crashes;
                  check_true
                    (Printf.sprintf "seed %d pressure %.1f: availability in range"
                       seed pressure)
                    (report.Stream_ops.availability >= 0.0
                    && report.Stream_ops.availability <= 1.0);
                  check_true
                    (Printf.sprintf "seed %d pressure %.1f: downtime >= 0" seed
                       pressure)
                    (report.Stream_ops.total_downtime >= 0.0);
                  List.iter (check_epoch ~seed ~pressure)
                    report.Stream_ops.epochs;
                  report.Stream_ops.availability)
                pressures
            in
            (* nested crash sets: more pressure can only lose more *)
            ignore
              (List.fold_left
                 (fun prev avail ->
                   check_true
                     (Printf.sprintf
                        "seed %d: availability non-increasing in the rate" seed)
                     (avail <= prev +. 1e-9);
                   avail)
                 infinity availabilities))
          seeds;
        check_true
          (Printf.sprintf "enough epochs driven (%d)" !total_epochs)
          (!total_epochs >= 100);
        check_true
          (Printf.sprintf "enough crashes recovered (%d)" !total_crashes)
          (!total_crashes >= 30));
    case "a timeline is deterministic for a pinned seed" (fun () ->
        let seed = List.hd seeds and pressure = List.nth pressures 1 in
        let mapping = mapping_of seed in
        let a = operate ~seed ~pressure mapping in
        let b = operate ~seed ~pressure mapping in
        Fixtures.check_int "same epoch count"
          (List.length a.Stream_ops.epochs)
          (List.length b.Stream_ops.epochs);
        check_true "same availability bits"
          (Int64.bits_of_float a.Stream_ops.availability
          = Int64.bits_of_float b.Stream_ops.availability);
        check_true "same latency bits"
          (Int64.bits_of_float a.Stream_ops.mean_latency
          = Int64.bits_of_float b.Stream_ops.mean_latency));
    case "a zero rate never crashes and delivers everything" (fun () ->
        let mapping = mapping_of 11 in
        let report = operate ~seed:11 ~pressure:0.0 mapping in
        Fixtures.check_int "no crashes" 0 report.Stream_ops.crashes;
        Fixtures.check_int "one clean epoch" 1
          (List.length report.Stream_ops.epochs);
        check_true "full availability" (report.Stream_ops.availability = 1.0);
        check_true "no outage" (not report.Stream_ops.outage));
    case "a post-recovery burst through a tight queue sheds items" (fun () ->
        (* Burst-during-failure scenario: after every restoration the
           backlog flushes at 8x the nominal rate through a depth-1 queue
           that drops on overflow.  The window is effectively unbounded so
           any restoration at all guarantees overload pressure. *)
        let overload =
          Some
            {
              Stream_ops.queue_bound = 1;
              policy = Engine.Run.Drop_newest;
              burst_factor = 8.0;
              burst_window = 1e9;
            }
        in
        let seed = 11 and pressure = 10.0 in
        let mapping = mapping_of seed in
        let report = operate ~overload ~seed ~pressure mapping in
        check_true "at least one restoration happened"
          (List.exists
             (fun ep ->
               match ep.Stream_ops.decision with
               | Stream_ops.Restored _ -> true
               | _ -> false)
             report.Stream_ops.epochs);
        check_true
          (Printf.sprintf "the burst sheds items (%d dropped)"
             report.Stream_ops.dropped)
          (report.Stream_ops.dropped > 0);
        check_true "drops are a subset of the lost items"
          (report.Stream_ops.dropped
          <= report.Stream_ops.injected - report.Stream_ops.delivered);
        let again = operate ~overload ~seed ~pressure mapping in
        Fixtures.check_int "deterministic drop count"
          report.Stream_ops.dropped again.Stream_ops.dropped;
        check_true "deterministic availability bits"
          (Int64.bits_of_float report.Stream_ops.availability
          = Int64.bits_of_float again.Stream_ops.availability));
    case "backpressure never sheds; a quiet overload run delivers all"
      (fun () ->
        (* Block = upstream backpressure: the queue stalls the source
           instead of dropping, so [dropped] stays 0 under the same
           pressure that sheds under Drop_newest... *)
        let block =
          Some
            {
              Stream_ops.queue_bound = 1;
              policy = Engine.Run.Block;
              burst_factor = 8.0;
              burst_window = 1e9;
            }
        in
        let mapping = mapping_of 11 in
        let report = operate ~overload:block ~seed:11 ~pressure:10.0 mapping in
        Fixtures.check_int "backpressure drops nothing" 0
          report.Stream_ops.dropped;
        (* ... and with no crash there is never a burst, so the open-mode
           timeline matches the legacy closed one on the dashboard. *)
        let quiet = operate ~overload:block ~seed:11 ~pressure:0.0 mapping in
        let legacy = operate ~seed:11 ~pressure:0.0 mapping in
        Fixtures.check_int "no crashes" 0 quiet.Stream_ops.crashes;
        Fixtures.check_int "nothing dropped" 0 quiet.Stream_ops.dropped;
        check_true "full availability" (quiet.Stream_ops.availability = 1.0);
        Fixtures.check_int "same injections as the closed path"
          legacy.Stream_ops.injected quiet.Stream_ops.injected;
        Fixtures.check_int "same deliveries as the closed path"
          legacy.Stream_ops.delivered quiet.Stream_ops.delivered);
    case "retry exhaustion escalates to eviction through the recovery chain"
      (fun () ->
        (* No crashes at all: the only pressure is a processor stuck in a
           permanent exec-fault window with a one-retry budget.  Every
           instance dispatched to it times out twice and is abandoned;
           the exhaustion ledger crosses the threshold at a review
           instant and the machine is evicted — a synthetic fail-stop
           that must flow through the same recovery chain as a crash. *)
        let mapping = mapping_of 11 in
        let victim =
          (* a processor that actually executes work *)
          let n = Platform.size (Mapping.platform mapping) in
          let load = Array.make n 0 in
          Mapping.iter mapping (fun r ->
              load.(r.Replica.proc) <- load.(r.Replica.proc) + 1);
          let best = ref 0 in
          Array.iteri (fun u c -> if c > load.(!best) then best := u) load;
          !best
        in
        let throughput = Paper_workload.throughput ~eps in
        let p = Float.max (1.0 /. throughput) (Metrics.period mapping) in
        let faults =
          Some
            {
              Stream_ops.engine_faults =
                {
                  Faults.transient =
                    {
                      Faults.Transient.none with
                      Faults.Transient.exec_windows = [ (victim, 0.0, 1e15) ];
                    };
                  retry = Faults.Backoff.make ~max_retries:1 ();
                  gray = Faults.Gray.none;
                };
              eviction_threshold = 3;
              review_window = float_of_int horizon_items *. p /. 8.0;
            }
        in
        let report = operate ~faults ~seed:11 ~pressure:0.0 mapping in
        check_true
          (Printf.sprintf "the victim was evicted (%d evictions)"
             report.Stream_ops.evictions)
          (report.Stream_ops.evictions >= 1);
        Fixtures.check_int "an eviction is not a crash" 0
          report.Stream_ops.crashes;
        check_true "the eviction went through the recovery chain"
          (List.exists
             (fun ep ->
               match ep.Stream_ops.decision with
               | Stream_ops.Restored _ -> true
               | _ -> false)
             report.Stream_ops.epochs);
        check_true "the evicted processor closes its epoch"
          (List.exists
             (fun ep ->
               match ep.Stream_ops.crash with
               | Some (p, _) -> p = victim
               | None -> false)
             report.Stream_ops.epochs);
        check_true "post-eviction epochs deliver again"
          (report.Stream_ops.availability > 0.0);
        let again = operate ~faults ~seed:11 ~pressure:0.0 mapping in
        Fixtures.check_int "deterministic eviction count"
          report.Stream_ops.evictions again.Stream_ops.evictions;
        check_true "deterministic availability bits"
          (Int64.bits_of_float report.Stream_ops.availability
          = Int64.bits_of_float again.Stream_ops.availability));
    case "pinned digest of a timeline that resumes with down processors"
      (fun () ->
        (* An in-place restoration keeps the crashed processor in the
           platform, so the epoch after it resumes with that processor
           statically dead.  The digest pins every epoch of such a
           timeline: clocks, item accounting, latencies and decisions. *)
        let seed = 23 in
        let r = operate ~seed ~pressure:10.0 (mapping_of seed) in
        let in_place (ep : Stream_ops.epoch) =
          match ep.Stream_ops.decision with
          | Stream_ops.Restored Recovery_policy.Full_strength
          | Stream_ops.Restored Recovery_policy.Relaxed_throughput ->
              true
          | _ -> false
        in
        let rec resumes_down = function
          | ep :: (_ :: _ as rest) -> in_place ep || resumes_down rest
          | _ -> false
        in
        check_true "an epoch resumes with a processor down"
          (resumes_down r.Stream_ops.epochs);
        let epoch (ep : Stream_ops.epoch) =
          Printf.sprintf "%d@%h..%h:i%d,d%d,l%d,c%d,p%h,m%h,%s,w%h,%s,t%d"
            ep.Stream_ops.index ep.Stream_ops.t_start ep.Stream_ops.t_end
            ep.Stream_ops.injected ep.Stream_ops.delivered ep.Stream_ops.lost
            ep.Stream_ops.capped ep.Stream_ops.peak_latency
            ep.Stream_ops.mean_latency
            (match ep.Stream_ops.crash with
            | None -> "-"
            | Some (p, t) -> Printf.sprintf "%d@%h" p t)
            ep.Stream_ops.downtime
            (Stream_ops.decision_to_string ep.Stream_ops.decision)
            ep.Stream_ops.tolerance
        in
        let totals =
          Printf.sprintf "C%d;I%d;D%d;A%h;M%h;G%h;W%h" r.Stream_ops.crashes
            r.Stream_ops.injected r.Stream_ops.delivered
            r.Stream_ops.availability r.Stream_ops.mean_latency
            r.Stream_ops.degraded_mean_latency r.Stream_ops.total_downtime
        in
        let text =
          String.concat ";" (List.map epoch r.Stream_ops.epochs @ [ totals ])
        in
        Alcotest.(check string)
          "digest" "16225774ea06541cacdaec3aacf86e41"
          (Digest.to_hex (Digest.string text)));
  ]

let () = Alcotest.run "chaos" [ ("recovery-engine", chaos_tests) ]
