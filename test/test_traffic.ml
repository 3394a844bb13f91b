(* Open-system traffic: arrival processes, bounded queues, backpressure.

   The load-bearing guarantee is the degenerate point: the engine runs a
   Closed config as a Deterministic arrival process through unbounded
   Block queues, so an explicit open run of that process must match it
   bit-for-bit (same latencies, same message log, same makespan), and the
   closed result must still report no queueing at all.  Around it: pinned
   digests for the randomized processes (Poisson / MMPP), queue-bound
   invariants, drop accounting, and the percentile helpers the traffic
   figures consume. *)

open Test_support

let case = Fixtures.case
let check_true = Fixtures.check_true
let check_int = Fixtures.check_int
let to_alcotest = QCheck_alcotest.to_alcotest
let seed_arb = QCheck.int_range 0 100_000

let bits = Int64.bits_of_float
let float_bits_equal a b = bits a = bits b

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

let digest_of_times ts =
  let buf = Buffer.create 1024 in
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "%h;" t)) ts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let arrival_tests =
  [
    case "a deterministic process is the closed injection grid, bit-for-bit"
      (fun () ->
        let period = 0.3 in
        let ts = Arrival.times ~n:16 (Arrival.Deterministic { period }) in
        check_int "sixteen offsets" 16 (Array.length ts);
        Array.iteri
          (fun k t ->
            check_true
              (Printf.sprintf "offset %d equals k * period" k)
              (float_bits_equal t (float_of_int k *. period)))
          ts);
    case "offsets are nondecreasing, finite and nonnegative" (fun () ->
        let processes =
          [
            Arrival.Deterministic { period = 0.25 };
            Arrival.Poisson { rate = 3.0 };
            Arrival.Mmpp
              {
                burst_rate = 6.0;
                idle_rate = 0.5;
                mean_burst = 2.0;
                mean_idle = 4.0;
              };
            Arrival.Trace [ 0.0; 0.0; 0.5; 1.25; 1.25; 3.0 ];
          ]
        in
        List.iter
          (fun p ->
            let rng = Rng.create ~seed:7 in
            let ts = Arrival.times ~rng ~n:6 p in
            let prev = ref (-1.0) in
            Array.iter
              (fun t ->
                check_true
                  (Arrival.to_string p ^ ": finite nonneg nondecreasing")
                  (Float.is_finite t && t >= 0.0 && t >= !prev);
                prev := t)
              ts)
          processes);
    case "pinned Poisson offsets for a pinned seed" (fun () ->
        (* Digest guard: any change to the gap-drawing expression (unit
           quanta scaled by 1/rate) re-times every experiment. *)
        let rng = Rng.create ~seed:2009 in
        let ts = Arrival.times ~rng ~n:32 (Arrival.Poisson { rate = 2.0 }) in
        Alcotest.(check string)
          "digest" "e45d1da485c0c138e09ab70260b18e37" (digest_of_times ts));
    case "pinned MMPP offsets for a pinned seed" (fun () ->
        let rng = Rng.create ~seed:2009 in
        let ts =
          Arrival.times ~rng ~n:32
            (Arrival.Mmpp
               {
                 burst_rate = 4.0;
                 idle_rate = 0.4;
                 mean_burst = 5.0;
                 mean_idle = 10.0;
               })
        in
        Alcotest.(check string) "digest" "745728cfa16a3ca2038b4f9cc344313e" (digest_of_times ts));
    case "a Poisson rate sweep re-times the same quanta monotonically"
      (fun () ->
        (* Common random numbers: equal seeds draw equal unit-rate quanta,
           so a higher rate can only move every arrival earlier. *)
        let times rate =
          let rng = Rng.create ~seed:99 in
          Arrival.times ~rng ~n:64 (Arrival.Poisson { rate })
        in
        let slow = times 1.0 and fast = times 2.0 in
        Array.iteri
          (fun k t ->
            check_true
              (Printf.sprintf "arrival %d no later at the higher rate" k)
              (fast.(k) <= t))
          slow);
    case "validation rejects malformed processes and traces" (fun () ->
        let rejects what thunk =
          match thunk () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
        in
        rejects "negative n" (fun () ->
            Arrival.times ~n:(-1) (Arrival.Deterministic { period = 1.0 }));
        rejects "negative period" (fun () ->
            Arrival.times ~n:2 (Arrival.Deterministic { period = -1.0 }));
        rejects "Poisson without rng" (fun () ->
            Arrival.times ~n:2 (Arrival.Poisson { rate = 1.0 }));
        rejects "nonpositive rate" (fun () ->
            Arrival.times ~rng:(Rng.create ~seed:1) ~n:2
              (Arrival.Poisson { rate = 0.0 }));
        rejects "MMPP without rng" (fun () ->
            Arrival.times ~n:2
              (Arrival.Mmpp
                 {
                   burst_rate = 1.0;
                   idle_rate = 1.0;
                   mean_burst = 1.0;
                   mean_idle = 1.0;
                 }));
        rejects "short trace" (fun () ->
            Arrival.times ~n:3 (Arrival.Trace [ 0.0; 1.0 ]));
        rejects "decreasing trace" (fun () ->
            Arrival.times ~n:3 (Arrival.Trace [ 0.0; 2.0; 1.0 ]));
        rejects "negative trace offset" (fun () ->
            Arrival.times ~n:2 (Arrival.Trace [ -1.0; 0.0 ]));
        rejects "non-finite trace offset" (fun () ->
            Arrival.times ~n:2 (Arrival.Trace [ 0.0; nan ])));
  ]

(* ------------------------------------------------------------------ *)
(* Degenerate point: open(Deterministic, unbounded, Block) == closed    *)
(* ------------------------------------------------------------------ *)

(* A small schedulable problem per seed, in the style of the scheduler
   property suite: random layered DAG on a uniform platform. *)
let mapping_of_seed seed =
  let rng = Rng.create ~seed in
  let tasks = 5 + Rng.int rng 12 in
  let dag = Random_dag.layered ~rng ~tasks () in
  let m = 3 + Rng.int rng 4 in
  let plat = Fixtures.uniform m in
  let eps = Rng.int rng (min 2 (m - 1) + 1) in
  let throughput =
    1.0 /. (4.0 *. float_of_int (eps + 1) *. float_of_int tasks /. float_of_int m)
  in
  let prob = Types.problem ~dag ~platform:plat ~eps ~throughput in
  match
    Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob
  with
  | Ok mapping -> Some mapping
  | Error _ -> None

let message_log (r : Engine.result) =
  List.map
    (fun (m : Engine.message) ->
      ( m.Engine.msg_src.Engine.item,
        m.Engine.msg_src.Engine.rep,
        m.Engine.msg_dst.Engine.item,
        m.Engine.msg_dst.Engine.rep,
        bits m.Engine.msg_start,
        bits m.Engine.msg_finish ))
    r.Engine.messages

let float_opt_bits = function None -> None | Some l -> Some (bits l)

let results_bit_identical (a : Engine.result) (b : Engine.result) =
  Array.map float_opt_bits a.Engine.item_latency
  = Array.map float_opt_bits b.Engine.item_latency
  && float_bits_equal a.Engine.makespan b.Engine.makespan
  && float_bits_equal a.Engine.period b.Engine.period
  && Array.map bits a.Engine.arrivals = Array.map bits b.Engine.arrivals
  && Array.map bits a.Engine.injections = Array.map bits b.Engine.injections
  && message_log a = message_log b

let prop_degenerate_open_is_closed =
  QCheck.Test.make
    ~name:"deterministic unbounded open runs are bit-identical to closed ones"
    ~count:40
    QCheck.(pair seed_arb (int_range 1 8))
    (fun (seed, n_items) ->
      match mapping_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some mapping ->
          let prog = Engine.compile mapping in
          let period = Engine.program_period prog in
          let closed =
            Engine.simulate ~config:(Engine.Run.closed ~n_items ~period ()) prog
          in
          let opened =
            Engine.simulate
              ~config:
                (Engine.Run.open_ ~n_items
                   (Arrival.Deterministic { period }))
              prog
          in
          opened.Engine.dropped = 0
          && opened.Engine.stalled = 0
          && float_bits_equal opened.Engine.stall_time 0.0
          && results_bit_identical closed opened)

(* A transient + gray fault scenario on an [m]-processor platform: rate
   draws on every execution and transfer, a straggler and a degraded
   link whose windows open at the snapshot clock. *)
let fault_scenario ~seed ~m ~clock ~period ~rate ~factor =
  let window =
    { Faults.Gray.g_from = clock; g_until = clock +. (3.0 *. period); factor }
  in
  {
    Faults.transient =
      { Faults.Transient.none with exec_rate = rate; comm_rate = rate; seed };
    retry = Faults.Backoff.make ~base_delay:(0.1 *. period) ~max_retries:2 ();
    gray =
      {
        Faults.Gray.stragglers = [ (seed mod m, window) ];
        links = [ ((0, 1), window) ];
      };
  }

let prop_degenerate_under_failures =
  QCheck.Test.make
    ~name:"the degenerate point holds under timed failures too" ~count:25
    QCheck.(
      quad seed_arb (float_range 0.01 30.0) (float_range 0.0 0.3)
        (float_range 1.0 3.0))
    (fun (seed, clock, rate, factor) ->
      match mapping_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some mapping ->
          let prog = Engine.compile mapping in
          let period = Engine.program_period prog in
          let n_items = 4 in
          let m = Platform.size (Mapping.platform mapping) in
          let timed_failures = [ (seed mod m, clock +. (1.5 *. period)) ] in
          let snapshot = Some { Engine.clock } in
          let faults = fault_scenario ~seed ~m ~clock ~period ~rate ~factor in
          let with_scenario config =
            Engine.Run.with_faults faults
              { config with Engine.Run.timed_failures; snapshot }
          in
          let closed =
            Engine.simulate
              ~config:(with_scenario (Engine.Run.closed ~n_items ~period ()))
              prog
          in
          let opened =
            Engine.simulate
              ~config:
                (with_scenario
                   (Engine.Run.open_ ~n_items (Arrival.Deterministic { period })))
              prog
          in
          closed.Engine.peak_queue = 0
          && closed.Engine.stalled = 0
          && float_bits_equal closed.Engine.stall_time 0.0
          && closed.Engine.dropped = 0
          && Array.map bits closed.Engine.injections
             = Array.map bits closed.Engine.arrivals
          && closed.Engine.faults = opened.Engine.faults
          && results_bit_identical closed opened)

(* ------------------------------------------------------------------ *)
(* Queue bounds, backpressure and shedding                              *)
(* ------------------------------------------------------------------ *)

let delivered (r : Engine.result) =
  Array.fold_left
    (fun acc l -> match l with Some _ -> acc + 1 | None -> acc)
    0 r.Engine.item_latency

let overload_run ~seed ~bound ~policy mapping =
  let prog = Engine.compile mapping in
  let period = Engine.program_period prog in
  (* Twice the sustainable rate: the queue is guaranteed to fill. *)
  let arrival = Arrival.Poisson { rate = 2.0 /. period } in
  Engine.simulate
    ~config:
      (Engine.Run.open_ ~queue_bound:bound ~policy
         ~rng:(Rng.create ~seed) ~n_items:24 arrival)
    prog

let prop_queue_invariants =
  QCheck.Test.make
    ~name:"bounded queues never exceed their bound and account every item"
    ~count:30
    QCheck.(pair seed_arb (int_range 1 4))
    (fun (seed, bound) ->
      match mapping_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some mapping ->
          let check policy =
            let r = overload_run ~seed ~bound ~policy mapping in
            let n = Array.length r.Engine.item_latency in
            let admitted = n - r.Engine.dropped - r.Engine.stalled in
            r.Engine.peak_queue <= bound
            && r.Engine.peak_queue >= 0
            && r.Engine.dropped >= 0
            && r.Engine.stalled >= 0
            (* no failures: every admitted item is delivered *)
            && delivered r = admitted
            && Float.is_finite r.Engine.stall_time
            && r.Engine.stall_time >= 0.0
            (* no failures here, so injections are nan exactly for the
               shed / stalled items, i.e. the undelivered ones *)
            && (let ok = ref true in
                Array.iteri
                  (fun k l ->
                    if Float.is_nan r.Engine.injections.(k) <> (l = None) then
                      ok := false)
                  r.Engine.item_latency;
                !ok && n = Array.length r.Engine.injections)
          in
          check Engine.Run.Block && check Engine.Run.Drop_newest)

let queue_tests =
  [
    case "backpressure blocks instead of dropping; shedding drops instead"
      (fun () ->
        match mapping_of_seed 5 with
        | None -> Alcotest.fail "seed 5 must schedule"
        | Some mapping ->
            let blocked =
              overload_run ~seed:17 ~bound:1 ~policy:Engine.Run.Block mapping
            in
            let shed =
              overload_run ~seed:17 ~bound:1 ~policy:Engine.Run.Drop_newest
                mapping
            in
            check_int "Block never drops" 0 blocked.Engine.dropped;
            check_true "Block accumulates stall time"
              (blocked.Engine.stall_time > 0.0);
            check_true
              (Printf.sprintf "Drop_newest sheds under 2x overload (%d)"
                 shed.Engine.dropped)
              (shed.Engine.dropped > 0);
            check_true "shedding keeps sojourns bounded by backpressure's"
              (delivered shed > 0));
    case "a crashed entry shard wedges a blocked source, not the engine"
      (fun () ->
        (* eps = 0 mapping, kill the entry processor mid-run: with Block
           the backlog can never drain, the run must terminate anyway and
           report the wedged items as stalled. *)
        match mapping_of_seed 3 with
        | None -> Alcotest.fail "seed 3 must schedule"
        | Some mapping ->
            let prog = Engine.compile mapping in
            let period = Engine.program_period prog in
            let n_items = 12 in
            let procs = Platform.procs (Mapping.platform mapping) in
            let r =
              Engine.simulate
                ~config:
                  {
                    (Engine.Run.open_ ~queue_bound:1 ~n_items
                       (Arrival.Deterministic { period }))
                    with
                    Engine.Run.timed_failures =
                      List.map (fun p -> (p, 3.0 *. period)) procs;
                  }
                prog
            in
            check_true "every item is delivered, shed, stalled or defeated"
              (delivered r + r.Engine.dropped + r.Engine.stalled <= n_items);
            check_true "nothing delivered after the platform died entirely"
              (delivered r < n_items));
  ]

(* ------------------------------------------------------------------ *)
(* Percentile helpers                                                   *)
(* ------------------------------------------------------------------ *)

let stats_tests =
  [
    case "percentiles interpolate linearly (R-7)" (fun () ->
        let sample = [ 40.0; 10.0; 30.0; 20.0 ] in
        Fixtures.check_float "p0 is the min" 10.0 (Stats.percentile 0.0 sample);
        Fixtures.check_float "p100 is the max" 40.0
          (Stats.percentile 100.0 sample);
        Fixtures.check_float "p50 interpolates" 25.0
          (Stats.percentile 50.0 sample);
        Fixtures.check_float "p25 interpolates" 17.5
          (Stats.percentile 25.0 sample);
        Fixtures.check_float "singleton is every percentile" 7.0
          (Stats.percentile 99.0 [ 7.0 ]));
    case "empty samples yield nan, never zero" (fun () ->
        check_true "percentile" (Float.is_nan (Stats.percentile 50.0 []));
        let q = Stats.quantiles [] in
        check_int "q_n" 0 q.Stats.q_n;
        check_true "all nan"
          (Float.is_nan q.Stats.p50 && Float.is_nan q.Stats.p95
          && Float.is_nan q.Stats.p99 && Float.is_nan q.Stats.p999));
    case "out-of-range percentile levels are rejected" (fun () ->
        let rejects p =
          match Stats.percentile p [ 1.0 ] with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "p = %g: expected Invalid_argument" p
        in
        rejects (-1.0);
        rejects 100.5;
        rejects nan);
    case "quantiles agree with percentile on the same sample" (fun () ->
        let sample = List.init 200 (fun k -> float_of_int ((k * 37) mod 200)) in
        let q = Stats.quantiles sample in
        check_int "q_n" 200 q.Stats.q_n;
        Fixtures.check_float "p50" (Stats.percentile 50.0 sample) q.Stats.p50;
        Fixtures.check_float "p95" (Stats.percentile 95.0 sample) q.Stats.p95;
        Fixtures.check_float "p99" (Stats.percentile 99.0 sample) q.Stats.p99;
        Fixtures.check_float "p999" (Stats.percentile 99.9 sample)
          q.Stats.p999);
  ]

let () =
  Alcotest.run "traffic"
    [
      ("arrival-processes", arrival_tests);
      ( "degenerate-point",
        List.map to_alcotest
          [ prop_degenerate_open_is_closed; prop_degenerate_under_failures ] );
      ("queues", List.map to_alcotest [ prop_queue_invariants ] @ queue_tests);
      ("percentiles", stats_tests);
    ]
