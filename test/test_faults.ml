open Test_support

(* The fault-injection subsystem: backoff arithmetic, deterministic
   transient draws, failure domains, the engine's retry/timeout/gray
   semantics (exact latencies on hand-built mappings), bit-identity of
   the fault-free fast path against the pinned PR 5 digest, and the
   correlated crash generator. *)

let case = Fixtures.case
let check_float = Fixtures.check_float
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true

let id task copy = { Replica.task; copy }

let place m task copy proc sources =
  Mapping.assign m { Replica.id = id task copy; proc; sources }

(* One task, exec 1.0, alone on processor 0 — the smallest stream whose
   latencies the retry arithmetic predicts exactly. *)
let solo () =
  let dag = Classic.chain ~n:1 ~exec:1.0 ~volume:1.0 in
  let m = Mapping.create ~dag ~platform:(Fixtures.uniform 1) ~eps:0 in
  place m 0 0 0 [];
  Engine.compile m

(* Two tasks on two processors with one unit transfer between them:
   clean single-item latency 3.0 (exec [0,1), transfer [1,2),
   exec [2,3)). *)
let relay () =
  let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
  let m = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
  place m 0 0 0 [];
  place m 1 0 1 [ (0, [ id 0 0 ]) ];
  Engine.compile m

let run_with faults ?(n_items = 1) prog =
  Engine.simulate
    ~config:(Engine.Run.with_faults faults (Engine.Run.closed ~n_items ()))
    prog

let exec_faults ?(retry = Faults.Backoff.none) ?(rate = 0.0) ?(seed = 0)
    ?(windows = []) () =
  {
    Faults.none with
    Faults.transient =
      {
        Faults.Transient.none with
        Faults.Transient.exec_rate = rate;
        exec_windows = windows;
        seed;
      };
    retry;
  }

(* ------------------------------------------------------------------ *)
(* Backoff arithmetic                                                   *)
(* ------------------------------------------------------------------ *)

let backoff_tests =
  [
    case "truncated exponential delays" (fun () ->
        let b =
          Faults.Backoff.make ~base_delay:2.0 ~multiplier:3.0 ~max_retries:3 ()
        in
        check_float "first" 2.0 (Faults.Backoff.delay b ~attempt:1);
        check_float "second" 6.0 (Faults.Backoff.delay b ~attempt:2);
        check_float "third" 18.0 (Faults.Backoff.delay b ~attempt:3));
    case "zero base delay is exactly zero at any attempt" (fun () ->
        let b =
          Faults.Backoff.make ~base_delay:0.0 ~multiplier:10.0 ~max_retries:5 ()
        in
        List.iter
          (fun attempt ->
            check_float "zero" 0.0 (Faults.Backoff.delay b ~attempt))
          [ 1; 2; 5 ]);
    case "defaults: immediate retry, doubling" (fun () ->
        let b = Faults.Backoff.make ~max_retries:2 () in
        check_int "retries" 2 b.Faults.Backoff.max_retries;
        check_float "base" 0.0 b.Faults.Backoff.base_delay;
        check_float "multiplier" 2.0 b.Faults.Backoff.multiplier);
    case "rejects malformed policies and attempts" (fun () ->
        let raises f = try f (); false with Invalid_argument _ -> true in
        check_true "negative retries"
          (raises (fun () -> ignore (Faults.Backoff.make ~max_retries:(-1) ())));
        check_true "negative base"
          (raises (fun () ->
               ignore
                 (Faults.Backoff.make ~base_delay:(-1.0) ~max_retries:0 ())));
        check_true "nan multiplier"
          (raises (fun () ->
               ignore
                 (Faults.Backoff.make ~multiplier:nan ~max_retries:0 ())));
        check_true "attempt 0"
          (raises (fun () ->
               ignore
                 (Faults.Backoff.delay Faults.Backoff.none ~attempt:0))));
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic transient draws                                        *)
(* ------------------------------------------------------------------ *)

let draw_tests =
  [
    case "uniform is deterministic and in [0, 1)" (fun () ->
        let ok = ref true in
        for key = 0 to 200 do
          let u = Faults.uniform ~seed:7 ~salt:17 ~key ~attempt:1 in
          if not (u >= 0.0 && u < 1.0) then ok := false;
          if u <> Faults.uniform ~seed:7 ~salt:17 ~key ~attempt:1 then
            ok := false
        done;
        check_true "all draws in range and repeatable" !ok);
    case "failing set is monotone in the rate (CRN)" (fun () ->
        let at rate =
          {
            Faults.Transient.none with
            Faults.Transient.exec_rate = rate;
            seed = 42;
          }
        in
        let lo = at 0.1 and hi = at 0.3 in
        let ok = ref true and low_fired = ref 0 in
        for key = 0 to 500 do
          for attempt = 1 to 3 do
            let f_lo =
              Faults.Transient.exec_fails lo ~proc:0 ~key ~attempt
                ~clock:[| 0.0 |] ~slot:0
            in
            let f_hi =
              Faults.Transient.exec_fails hi ~proc:0 ~key ~attempt
                ~clock:[| 0.0 |] ~slot:0
            in
            if f_lo then incr low_fired;
            if f_lo && not f_hi then ok := false
          done
        done;
        check_true "every low-rate fault also fires at the high rate" !ok;
        check_true "the low rate fires at all" (!low_fired > 0));
    case "windows fail exactly [t0, t1) on the named processor" (fun () ->
        let t =
          {
            Faults.Transient.none with
            Faults.Transient.exec_windows = [ (1, 2.0, 5.0) ];
          }
        in
        let fails ~proc ~at =
          Faults.Transient.exec_fails t ~proc ~key:0 ~attempt:1
            ~clock:[| at |] ~slot:0
        in
        check_true "inside" (fails ~proc:1 ~at:2.0);
        check_true "inside late" (fails ~proc:1 ~at:4.999);
        check_true "before" (not (fails ~proc:1 ~at:1.999));
        check_true "at the open end" (not (fails ~proc:1 ~at:5.0));
        check_true "other processor" (not (fails ~proc:0 ~at:3.0)));
    case "is_none" (fun () ->
        check_true "none" (Faults.is_none Faults.none);
        check_true "a window arms the model"
          (not
             (Faults.is_none
                (exec_faults ~windows:[ (0, 1e12, 1e12 +. 1.0) ] ()))));
  ]

(* ------------------------------------------------------------------ *)
(* Failure domains                                                     *)
(* ------------------------------------------------------------------ *)

let domain_tests =
  [
    case "racks partition contiguously, last rack smaller" (fun () ->
        let d = Faults.Domains.racks ~size:3 ~procs:8 in
        check_int "count" 3 (Faults.Domains.count d);
        check_int "procs" 8 (Faults.Domains.procs d);
        Alcotest.(check (list int)) "rack 0" [ 0; 1; 2 ]
          (Faults.Domains.members d 0);
        Alcotest.(check (list int)) "rack 2" [ 6; 7 ]
          (Faults.Domains.members d 2);
        check_int "domain of 5" 1 (Faults.Domains.domain_of d 5));
    case "unlisted processors become trailing singletons" (fun () ->
        let d = Faults.Domains.make ~procs:5 [ [ 1; 3 ] ] in
        check_int "count" 4 (Faults.Domains.count d);
        check_int "the listed group is domain 0" 0
          (Faults.Domains.domain_of d 3);
        check_true "singletons are separate domains"
          (Faults.Domains.domain_of d 0 <> Faults.Domains.domain_of d 2));
    case "rejects malformed partitions" (fun () ->
        let raises f = try f (); false with Invalid_argument _ -> true in
        check_true "out of range"
          (raises (fun () -> ignore (Faults.Domains.make ~procs:2 [ [ 2 ] ])));
        check_true "duplicate"
          (raises (fun () ->
               ignore (Faults.Domains.make ~procs:3 [ [ 0 ]; [ 0 ] ])));
        check_true "empty group"
          (raises (fun () -> ignore (Faults.Domains.make ~procs:3 [ [] ])));
        check_true "zero rack size"
          (raises (fun () ->
               ignore (Faults.Domains.racks ~size:0 ~procs:3))));
  ]

(* ------------------------------------------------------------------ *)
(* Engine semantics: timeouts, backoff, escalation, gray windows        *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    case "a failed attempt consumes its whole duration before the retry"
      (fun () ->
        (* Window [0, 0.5): attempt 1 starts at 0 inside it and fails,
           but the fault is only detected at the timeout (t = 1.0); the
           retry waits out the backoff (0.7) and runs [1.7, 2.7). *)
        let faults =
          exec_faults ~windows:[ (0, 0.0, 0.5) ]
            ~retry:
              (Faults.Backoff.make ~base_delay:0.7 ~multiplier:3.0
                 ~max_retries:2 ())
            ()
        in
        let r = run_with faults (solo ()) in
        check_float "latency = timeout + backoff + clean run" 2.7
          (Option.get r.Engine.item_latency.(0));
        check_int "one retry" 1 r.Engine.faults.Engine.retries;
        check_int "one transient exec fault" 1
          r.Engine.faults.Engine.exec_faults;
        check_float "backoff time ledger" 0.7
          r.Engine.faults.Engine.backoff_time;
        check_int "nothing exhausted" 0 r.Engine.faults.Engine.exhausted);
    case "zero-delay backoff re-drives at the detection instant" (fun () ->
        let faults =
          exec_faults ~windows:[ (0, 0.0, 0.5) ]
            ~retry:(Faults.Backoff.make ~max_retries:1 ())
            ()
        in
        let r = run_with faults (solo ()) in
        check_float "latency = one lost attempt + clean run" 2.0
          (Option.get r.Engine.item_latency.(0)));
    case "escalation boundary: the window edge decides survival" (fun () ->
        (* max_retries = 1, immediate retry.  Attempt 2 starts at the
           detection instant t = 1.0: a window [0, 1.0) spares it (the
           interval is half-open), a window [0, 1.5) kills it — and with
           the budget spent the work unit is abandoned. *)
        let survives =
          run_with
            (exec_faults ~windows:[ (0, 0.0, 1.0) ]
               ~retry:(Faults.Backoff.make ~max_retries:1 ())
               ())
            (solo ())
        in
        check_float "retry at the open edge survives" 2.0
          (Option.get survives.Engine.item_latency.(0));
        let exhausted =
          run_with
            (exec_faults ~windows:[ (0, 0.0, 1.5) ]
               ~retry:(Faults.Backoff.make ~max_retries:1 ())
               ())
            (solo ())
        in
        check_true "item lost" (exhausted.Engine.item_latency.(0) = None);
        check_int "exhaustion counted" 1 exhausted.Engine.faults.Engine.exhausted;
        check_int "charged to its processor" 1
          exhausted.Engine.faults.Engine.exhausted_on.(0);
        check_int "the budget was spent first" 1
          exhausted.Engine.faults.Engine.retries);
    case "a gray straggler stretches the whole attempt it starts in"
      (fun () ->
        let gray factor g_until =
          {
            Faults.none with
            Faults.gray =
              {
                Faults.Gray.stragglers =
                  [ (0, { Faults.Gray.g_from = 0.0; g_until; factor }) ];
                links = [];
              };
          }
        in
        let r = run_with (gray 2.5 10.0) (solo ()) in
        check_float "latency scaled" 2.5 (Option.get r.Engine.item_latency.(0));
        check_int "slowdown counted" 1
          r.Engine.faults.Engine.slowed_attempts;
        (* The factor is sampled at attempt start: a window that closes
           mid-attempt still stretches the whole attempt. *)
        let r = run_with (gray 2.0 0.5) (solo ()) in
        check_float "whole attempt stretched" 2.0
          (Option.get r.Engine.item_latency.(0)));
    case "a transient transfer fault holds the port, then retries"
      (fun () ->
        (* Clean relay latency 3.0.  The transfer commits at t = 1.0
           inside the comm window, burns its full duration to the
           timeout at 2.0, waits out the 0.5 backoff and reruns
           [2.5, 3.5); the consumer runs [3.5, 4.5). *)
        let faults =
          {
            Faults.none with
            Faults.transient =
              {
                Faults.Transient.none with
                Faults.Transient.comm_windows = [ (0, 0.0, 1.5) ];
              };
            retry = Faults.Backoff.make ~base_delay:0.5 ~max_retries:2 ();
          }
        in
        let r = run_with faults (relay ()) in
        check_float "latency" 4.5 (Option.get r.Engine.item_latency.(0));
        check_int "one comm fault" 1 r.Engine.faults.Engine.comm_faults;
        check_int "one retry" 1 r.Engine.faults.Engine.retries);
    case "a degraded link stretches the transfer" (fun () ->
        let faults =
          {
            Faults.none with
            Faults.gray =
              {
                Faults.Gray.stragglers = [];
                links =
                  [
                    ( (0, 1),
                      {
                        Faults.Gray.g_from = 0.0;
                        g_until = 10.0;
                        factor = 3.0;
                      } );
                  ];
              };
          }
        in
        let r = run_with faults (relay ()) in
        (* exec [0,1), transfer 3x [1,4), exec [4,5). *)
        check_float "latency" 5.0 (Option.get r.Engine.item_latency.(0));
        check_int "degradation counted" 1
          r.Engine.faults.Engine.degraded_transfers);
    case "latency inflates with the fault rate at a fixed budget" (fun () ->
        let rng = Rng.create ~seed:2009 in
        let inst = Spec.generate Spec.default ~rng ~granularity:1.0 () in
        let throughput = Paper_workload.throughput ~eps:1 in
        let m =
          Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
            (Types.problem ~dag:inst.Paper_workload.dag
               ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)
        in
        let prog = Engine.compile m in
        let retry =
          Faults.Backoff.make
            ~base_delay:(0.3 *. Engine.program_period prog)
            ~max_retries:5 ()
        in
        let mean_latency rate =
          let r =
            run_with (exec_faults ~retry ~rate ~seed:7 ()) ~n_items:20 prog
          in
          let s = Engine.sojourns r in
          ( List.fold_left ( +. ) 0.0 s /. float_of_int (List.length s),
            r.Engine.faults.Engine.retries )
        in
        let clean, r0 = mean_latency 0.0 in
        let faulty, r1 = mean_latency 0.2 in
        check_int "no retries without faults" 0 r0;
        check_true "retries fired" (r1 > 0);
        check_true "latency strictly inflated" (faulty > clean));
  ]

(* ------------------------------------------------------------------ *)
(* Bit-identity: faults = none is the pre-faults engine                 *)
(* ------------------------------------------------------------------ *)

(* The same digest as test_sim's pinned-digest case: any divergence in
   event order, tie-breaks or float expressions breaks it. *)
let digest_of_result (r : Engine.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (msg : Engine.message) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d.%d->%d:%d.%d@%h..%h;" msg.Engine.msg_src.item
           msg.Engine.msg_src.rep.Replica.task msg.Engine.msg_src.rep.Replica.copy
           msg.Engine.msg_dst.item msg.Engine.msg_dst.rep.Replica.task
           msg.Engine.msg_dst.rep.Replica.copy msg.Engine.msg_start
           msg.Engine.msg_finish))
    r.Engine.messages;
  Array.iter
    (fun l ->
      Buffer.add_string buf
        (match l with None -> "lost;" | Some l -> Printf.sprintf "%h;" l))
    r.Engine.item_latency;
  Buffer.add_string buf
    (Printf.sprintf "P%h;M%h" r.Engine.period r.Engine.makespan);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Armed but inert: a transient window in the far future and a factor-1
   straggler force the instrumented dispatch path while changing no
   duration and failing no attempt. *)
let inert_faults =
  {
    Faults.transient =
      {
        Faults.Transient.none with
        Faults.Transient.exec_windows = [ (0, 1e12, 1e12 +. 1.0) ];
        comm_windows = [ (0, 1e12, 1e12 +. 1.0) ];
      };
    retry = Faults.Backoff.make ~base_delay:1.0 ~max_retries:3 ();
    gray =
      {
        Faults.Gray.stragglers =
          [ (0, { Faults.Gray.g_from = 0.0; g_until = 1e12; factor = 1.0 }) ];
        links = [];
      };
  }

let paper_mapping () =
  let rng = Rng.create ~seed:2009 in
  let inst = Spec.generate Spec.default ~rng ~granularity:1.0 () in
  let throughput = Paper_workload.throughput ~eps:1 in
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:inst.Paper_workload.dag
       ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)

let identity_tests =
  [
    case "faults = none reproduces the pinned PR 5 digest (closed)"
      (fun () ->
        let m = paper_mapping () in
        let prog = Engine.compile m in
        let config faults =
          {
            Engine.Run.traffic =
              Engine.Run.Closed { n_items = 8; period = None };
            snapshot = None;
            failed = [];
            timed_failures = [ (1, 55.0); (4, 130.0) ];
            record_messages = true;
            faults;
          }
        in
        let fast = Engine.simulate ~config:(config Faults.none) prog in
        check_int "message count" 1415 (List.length fast.Engine.messages);
        Alcotest.(check string)
          "fast path digest" "86751422180444b1ec5c84c1e9506b12"
          (digest_of_result fast);
        let armed = Engine.simulate ~config:(config inert_faults) prog in
        Alcotest.(check string)
          "armed-but-inert digest" "86751422180444b1ec5c84c1e9506b12"
          (digest_of_result armed));
    case "armed-but-inert equals the fast path on random draws (QCheck)"
      (fun () ->
        let prog = Engine.compile (paper_mapping ()) in
        let n_procs =
          Platform.size (Mapping.platform (Engine.program_mapping prog))
        in
        let prop seed =
          let rng = Rng.create ~seed in
          let crash = (Rng.int rng n_procs, 20.0 +. Rng.float rng 200.0) in
          let closed faults =
            Engine.simulate
              ~config:
                {
                  Engine.Run.traffic =
                    Engine.Run.Closed { n_items = 6; period = None };
                  snapshot = None;
                  failed = [];
                  timed_failures = [ crash ];
                  record_messages = true;
                  faults;
                }
              prog
          in
          let opened faults =
            Engine.simulate
              ~config:
                (Engine.Run.with_faults faults
                   (Engine.Run.open_ ~queue_bound:3 ~n_items:10
                      ~rng:(Rng.create ~seed:(seed + 1))
                      (Arrival.Poisson
                         { rate = 0.8 /. Engine.program_period prog })))
              prog
          in
          digest_of_result (closed Faults.none)
          = digest_of_result (closed inert_faults)
          && digest_of_result (opened Faults.none)
             = digest_of_result (opened inert_faults)
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:10 ~name:"inert-faults-identity"
             QCheck.(int_range 0 10_000)
             prop));
  ]

(* ------------------------------------------------------------------ *)
(* Correlated crash draws                                               *)
(* ------------------------------------------------------------------ *)

let correlated_tests =
  [
    case "shock rate zero reproduces the independent timeline" (fun () ->
        let plat = Fixtures.uniform 9 in
        let hazard = Failure_gen.uniform ~lambda:0.01 in
        let correlation =
          {
            Failure_gen.domains = Faults.Domains.racks ~size:3 ~procs:9;
            shock_lambda = 0.0;
          }
        in
        let independent =
          Failure_gen.lifetimes ~rng:(Rng.create ~seed:31) hazard plat
        in
        let correlated =
          Failure_gen.correlated_lifetimes ~rng:(Rng.create ~seed:31) hazard
            correlation plat
        in
        check_true "bit-identical" (independent = correlated));
    case "a pure shock kills whole domains at one instant" (fun () ->
        (* Zero own hazard: every crash is a domain shock, so each
           domain's members share exactly one crash time. *)
        let plat = Fixtures.uniform 9 in
        let domains = Faults.Domains.racks ~size:3 ~procs:9 in
        let correlation = { Failure_gen.domains; shock_lambda = 0.05 } in
        let crashes =
          Failure_gen.correlated_lifetimes ~rng:(Rng.create ~seed:5)
            (Failure_gen.uniform ~lambda:0.0)
            correlation plat
        in
        check_int "everyone eventually dies" 9 (List.length crashes);
        let time_of = Hashtbl.create 4 in
        let ok = ref true in
        List.iter
          (fun (p, t) ->
            let d = Faults.Domains.domain_of domains p in
            match Hashtbl.find_opt time_of d with
            | None -> Hashtbl.add time_of d t
            | Some t' -> if t <> t' then ok := false)
          crashes;
        check_true "one shock instant per domain" !ok;
        check_int "three distinct shocks" 3 (Hashtbl.length time_of));
    case "rejects mismatched domains and negative rates" (fun () ->
        let plat = Fixtures.uniform 4 in
        let raises f = try f (); false with Invalid_argument _ -> true in
        check_true "wrong platform size"
          (raises (fun () ->
               ignore
                 (Failure_gen.correlated_lifetimes ~rng:(Rng.create ~seed:1)
                    (Failure_gen.uniform ~lambda:0.1)
                    {
                      Failure_gen.domains =
                        Faults.Domains.racks ~size:2 ~procs:6;
                      shock_lambda = 0.1;
                    }
                    plat)));
        check_true "negative shock rate"
          (raises (fun () ->
               ignore
                 (Failure_gen.correlated_lifetimes ~rng:(Rng.create ~seed:1)
                    (Failure_gen.uniform ~lambda:0.1)
                    {
                      Failure_gen.domains =
                        Faults.Domains.racks ~size:2 ~procs:4;
                      shock_lambda = -1.0;
                    }
                    plat))));
  ]

let () =
  Alcotest.run "stream_faults"
    [
      ("backoff", backoff_tests);
      ("transient-draws", draw_tests);
      ("failure-domains", domain_tests);
      ("engine-semantics", engine_tests);
      ("bit-identity", identity_tests);
      ("correlated-crashes", correlated_tests);
    ]
