open Test_support

let case = Fixtures.case
let check_float = Fixtures.check_float
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true
let simulate = Fixtures.simulate
let fixed_latency = Fixtures.fixed_latency

(* A closed-traffic config with failures and a resume snapshot. *)
let closed ?n_items ?period ?(failed = []) ?(timed_failures = []) ?snapshot ()
    =
  { (Engine.Run.closed ?n_items ?period ()) with failed; timed_failures; snapshot }

let id task copy = { Replica.task; copy }

let place m task copy proc sources =
  Mapping.assign m { Replica.id = id task copy; proc; sources }

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let heap_add = Fixtures.heap_add
let heap_drain = Fixtures.heap_drain

let heap_tests =
  [
    case "pops in key order" (fun () ->
        let h = Event_heap.create () in
        List.iter (fun k -> heap_add h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ]
          (List.map snd (heap_drain h)));
    case "ties pop in insertion order" (fun () ->
        let h = Event_heap.create () in
        List.iter (fun v -> heap_add h 1.0 v) [ 10; 20; 30 ];
        Alcotest.(check (list int)) "fifo" [ 10; 20; 30 ]
          (List.map snd (heap_drain h)));
    case "size and emptiness" (fun () ->
        let h = Event_heap.create () in
        check_true "empty" (Event_heap.is_empty h);
        heap_add h 1.0 0;
        heap_add h 2.0 0;
        check_int "size" 2 (Event_heap.size h);
        check_float "min key" 1.0 h.Event_heap.keys.(0);
        ignore (Event_heap.unsafe_pop h);
        check_int "size after pop" 1 (Event_heap.size h));
    case "pop of empty heap" (fun () ->
        (* [unsafe_pop] has no empty case of its own: callers guard it with
           [is_empty], so that guard must turn true exactly when the last
           element leaves, and the heap must stay usable afterwards. *)
        let h = Event_heap.create () in
        check_true "fresh is empty" (Event_heap.is_empty h);
        check_int "fresh size" 0 (Event_heap.size h);
        heap_add h 3.0 3;
        check_int "only element" 3 (Event_heap.unsafe_pop h);
        check_true "popped to empty" (Event_heap.is_empty h);
        check_int "size at empty" 0 (Event_heap.size h);
        heap_add h 4.0 4;
        heap_add h 2.0 2;
        Alcotest.(check (list (pair (float 0.0) int))) "refilled" [ (2.0, 2); (4.0, 4) ]
          (heap_drain h);
        check_true "drained to empty" (Event_heap.is_empty h));
    case "clear restarts the tie order" (fun () ->
        (* A cleared heap must serve ties exactly as a fresh one does: the
           run-state arena reuses one heap across runs. *)
        let h = Event_heap.create () in
        List.iter (fun v -> heap_add h 2.0 v) [ 1; 2; 3 ];
        ignore (Event_heap.unsafe_pop h);
        Event_heap.clear h;
        check_true "cleared is empty" (Event_heap.is_empty h);
        List.iter (fun v -> heap_add h 1.0 v) [ 7; 8; 9 ];
        Alcotest.(check (list int)) "fresh fifo" [ 7; 8; 9 ]
          (List.map snd (heap_drain h));
        check_true "drained is empty" (Event_heap.is_empty h));
    case "interleaved adds and pops stay sorted" (fun () ->
        let h = Event_heap.create () in
        heap_add h 5.0 5;
        heap_add h 1.0 1;
        check_float "first" 1.0 h.Event_heap.keys.(0);
        ignore (Event_heap.unsafe_pop h);
        heap_add h 0.5 0;
        Alcotest.(check (list (pair (float 0.0) int))) "rest" [ (0.5, 0); (5.0, 5) ]
          (heap_drain h));
  ]

(* ------------------------------------------------------------------ *)
(* Engine: exact single-item timings                                   *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    case "sequential chain on one processor" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 0 [ (0, [ id 0 0 ]) ];
        place m 2 0 0 [ (1, [ id 1 0 ]) ];
        let r = simulate m in
        check_float "t0 start" 0.0 (Option.get (r.Engine.start_time 0 (id 0 0)));
        check_float "t1 start" 1.0 (Option.get (r.Engine.start_time 0 (id 1 0)));
        check_float "t2 finish" 3.0 (Option.get (r.Engine.finish_time 0 (id 2 0)));
        check_float "latency" 3.0 (Option.get r.Engine.item_latency.(0)));
    case "chain across processors pays communications" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0 ]) ];
        place m 2 0 0 [ (1, [ id 1 0 ]) ];
        let r = simulate m in
        (* exec 1 + comm 1 + exec 1 + comm 1 + exec 1 *)
        check_float "latency" 5.0 (Option.get r.Engine.item_latency.(0));
        check_int "two transfers" 2 (List.length r.Engine.messages));
    case "one-port serializes a fan-out" (fun () ->
        let dag =
          Dag.of_edges ~name:"fan2" ~exec:[| 1.0; 1.0; 1.0 |]
            [ (0, 1, 1.0); (0, 2, 1.0) ]
        in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 3) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0 ]) ];
        place m 2 0 2 [ (0, [ id 0 0 ]) ];
        let r = simulate m in
        let finishes =
          List.sort compare
            [
              Option.get (r.Engine.finish_time 0 (id 1 0));
              Option.get (r.Engine.finish_time 0 (id 2 0));
            ]
        in
        (* the two messages share P0's send port: arrivals at 2 and 3 *)
        Alcotest.(check (list (float 1e-9))) "serialized" [ 3.0; 4.0 ] finishes;
        check_float "latency" 4.0 (Option.get r.Engine.item_latency.(0)));
    case "simultaneous finishes hand off in processor order" (fun () ->
        (* Both entries start at 0 on P2 and P1 and finish at 1.  Starts
           are made in ascending processor order, so P1's finish is
           handled first and P2's transfer, created last, wins the tie for
           P0's receive port. *)
        let dag =
          Dag.of_edges ~name:"join2" ~exec:[| 1.0; 1.0; 1.0 |]
            [ (0, 2, 1.0); (1, 2, 1.0) ]
        in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 3) ~eps:0 in
        place m 0 0 2 [];
        place m 1 0 1 [];
        place m 2 0 0 [ (0, [ id 0 0 ]); (1, [ id 1 0 ]) ];
        let r = simulate m in
        Alcotest.(check (list (pair int (float 0.0))))
          "sources by start" [ (0, 1.0); (1, 2.0) ]
          (List.map
             (fun (msg : Engine.message) ->
               (msg.Engine.msg_src.rep.Replica.task, msg.Engine.msg_start))
             r.Engine.messages));
    case "co-located data is available immediately" (fun () ->
        let dag =
          Dag.of_edges ~name:"fan2" ~exec:[| 1.0; 1.0; 1.0 |]
            [ (0, 1, 1.0); (0, 2, 1.0) ]
        in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 3) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 0 [ (0, [ id 0 0 ]) ];
        place m 2 0 0 [ (0, [ id 0 0 ]) ];
        let r = simulate m in
        check_float "no messages, pure compute" 3.0
          (Option.get r.Engine.item_latency.(0));
        check_int "no transfers" 0 (List.length r.Engine.messages));
    case "heterogeneous speeds change execution times" (fun () ->
        let m =
          Mapping.create ~dag:Fixtures.chain3 ~platform:Fixtures.hetero4 ~eps:0
        in
        place m 0 0 2 [];
        place m 1 0 2 [ (0, [ id 0 0 ]) ];
        place m 2 0 2 [ (1, [ id 1 0 ]) ];
        let r = simulate m in
        (* speed 0.5: each task takes 2 *)
        check_float "latency" 6.0 (Option.get r.Engine.item_latency.(0)));
    case "latency of the empty mapping run" (fun () ->
        let m = Mapping.create ~dag:Fixtures.singleton ~platform:(Fixtures.uniform 1) ~eps:0 in
        place m 0 0 0 [];
        check_float "one task" 1.0 (Option.get (fixed_latency m)));
  ]

(* ------------------------------------------------------------------ *)
(* Engine: replication and failures                                    *)
(* ------------------------------------------------------------------ *)

let lanes () =
  let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
  place m 0 0 0 [];
  place m 0 1 1 [];
  place m 1 0 0 [ (0, [ id 0 0 ]) ];
  place m 1 1 1 [ (0, [ id 0 1 ]) ];
  place m 2 0 0 [ (1, [ id 1 0 ]) ];
  place m 2 1 1 [ (1, [ id 1 1 ]) ];
  m

let failure_tests =
  [
    case "healthy lanes" (fun () ->
        check_float "latency" 3.0 (Option.get (fixed_latency (lanes ()))));
    case "one lane down still delivers" (fun () ->
        check_float "latency" 3.0 (Option.get (fixed_latency ~failed:[ 0 ] (lanes ()))));
    case "both lanes down lose the item" (fun () ->
        check_true "lost" (fixed_latency ~failed:[ 0; 1 ] (lanes ()) = None));
    case "failing an idle processor changes nothing" (fun () ->
        check_float "latency" 3.0 (Option.get (fixed_latency ~failed:[ 3 ] (lanes ()))));
    case "dead source forces the slower replica" (fun () ->
        (* t1(0) takes from t0(0) only; t0(0) on a failed proc starves the
           fast lane but the other lane delivers *)
        let m = lanes () in
        let r = simulate ~config:(closed ~failed:[ 0 ] ()) m in
        check_true "lane-0 replicas dead" (r.Engine.finish_time 0 (id 2 0) = None);
        check_float "lane-1 exit" 3.0 (Option.get (r.Engine.finish_time 0 (id 2 1))));
    case "full-group sources fall back on the survivor" (fun () ->
        let dag = Fixtures.chain3 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 4) ~eps:1 in
        place m 0 0 0 [];
        place m 0 1 1 [];
        place m 1 0 2 [ (0, [ id 0 0; id 0 1 ]) ];
        place m 1 1 3 [ (0, [ id 0 0; id 0 1 ]) ];
        place m 2 0 2 [ (1, [ id 1 0 ]) ];
        place m 2 1 3 [ (1, [ id 1 1 ]) ];
        (* healthy: first arrival enables; with P0 down, t1 replicas wait
           for t0(1)'s messages but still run *)
        check_true "healthy" (fixed_latency m <> None);
        check_true "P0 down survives" (fixed_latency ~failed:[ 0 ] m <> None);
        check_true "P1 down survives" (fixed_latency ~failed:[ 1 ] m <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Engine: pipelined multi-item execution                              *)
(* ------------------------------------------------------------------ *)

let pipeline_tests =
  [
    case "items flow at the injection period" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 1) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 0 [ (0, [ id 0 0 ]) ];
        let r = simulate ~config:(closed ~n_items:3 ~period:2.0 ()) m in
        Array.iter
          (fun l -> check_float "steady latency" 2.0 (Option.get l))
          r.Engine.item_latency);
    case "oversubscription builds a backlog" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 1) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 0 [ (0, [ id 0 0 ]) ];
        let r = simulate ~config:(closed ~n_items:3 ~period:1.0 ()) m in
        let lat i = Option.get r.Engine.item_latency.(i) in
        check_float "item 0" 2.0 (lat 0);
        check_float "item 1" 3.0 (lat 1);
        check_float "item 2" 4.0 (lat 2);
        check_float "sustained = capacity" 0.5
          (Option.get (Engine.sustained_throughput r)));
    case "sustained throughput needs two completions" (fun () ->
        let m = Mapping.create ~dag:Fixtures.singleton ~platform:(Fixtures.uniform 1) ~eps:0 in
        place m 0 0 0 [];
        let r = simulate ~config:(closed ~n_items:1 ()) m in
        check_true "none" (Engine.sustained_throughput r = None));
    case "earlier items have priority" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 1) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 0 [ (0, [ id 0 0 ]) ];
        let r = simulate ~config:(closed ~n_items:2 ~period:0.0 ()) m in
        (* both items injected at 0: item 0 must fully drain first *)
        check_float "item0 t1 finish" 2.0 (Option.get (r.Engine.finish_time 0 (id 1 0)));
        check_true "item1 finishes later"
          (Option.get (r.Engine.finish_time 1 (id 1 0)) > 2.0));
    case "run rejects bad arguments" (fun () ->
        let m = Mapping.create ~dag:Fixtures.singleton ~platform:(Fixtures.uniform 1) ~eps:0 in
        Alcotest.check_raises "incomplete" (Invalid_argument "") (fun () ->
            try ignore (simulate m) with Invalid_argument _ -> raise (Invalid_argument ""));
        place m 0 0 0 [];
        Alcotest.check_raises "n_items" (Invalid_argument "") (fun () ->
            try ignore (simulate ~config:(closed ~n_items:0 ()) m)
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "simulate rejects out-of-range processors and NaN inputs" (fun () ->
        (* lanes () runs on 4 processors *)
        List.iter
          (fun (what, config) ->
            match simulate ~config (lanes ()) with
            | _ -> Alcotest.failf "%s: expected Invalid_argument" what
            | exception Invalid_argument msg ->
                check_true
                  (Printf.sprintf "%s: message names Engine.simulate: %s" what msg)
                  (String.starts_with ~prefix:"Engine.simulate:" msg))
          [
            ("failed = [7]", closed ~failed:[ 7 ] ());
            ("failed = [-1]", closed ~failed:[ -1 ] ());
            ("timed processor 9", closed ~timed_failures:[ (9, 1.0) ] ());
            ("NaN failure time", closed ~timed_failures:[ (0, nan) ] ());
            ("NaN period", closed ~period:nan ());
            ("infinite period", closed ~n_items:2 ~period:infinity ());
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Timed (fail-stop) failures                                          *)
(* ------------------------------------------------------------------ *)

let timed_failure_tests =
  [
    case "a crash after completion changes nothing" (fun () ->
        let m = lanes () in
        let r = simulate ~config:(closed ~timed_failures:[ (0, 100.0) ] ()) m in
        check_float "latency" 3.0 (Option.get r.Engine.item_latency.(0)));
    case "a crash at time zero equals the fail-silent case" (fun () ->
        let m = lanes () in
        let a = simulate ~config:(closed ~failed:[ 0 ] ()) m in
        let b = simulate ~config:(closed ~timed_failures:[ (0, 0.0) ] ()) m in
        check_float "same latency"
          (Option.get a.Engine.item_latency.(0))
          (Option.get b.Engine.item_latency.(0)));
    case "work crossing the crash instant is lost" (fun () ->
        (* lane 0 executes t0 in [0,1], t1 in [1,2], t2 in [2,3]; crash P0
           at 1.5 loses t1(0) and t2(0) but lane 1 still delivers *)
        let m = lanes () in
        let r = simulate ~config:(closed ~timed_failures:[ (0, 1.5) ] ()) m in
        check_float "t0(0) survived" 1.0
          (Option.get (r.Engine.finish_time 0 (id 0 0)));
        check_true "t1(0) lost" (r.Engine.finish_time 0 (id 1 0) = None);
        check_float "lane 1 delivers" 3.0 (Option.get r.Engine.item_latency.(0)));
    case "work finishing exactly at the crash instant survives" (fun () ->
        let m = lanes () in
        let r = simulate ~config:(closed ~timed_failures:[ (0, 2.0) ] ()) m in
        check_float "t1(0) survives the boundary" 2.0
          (Option.get (r.Engine.finish_time 0 (id 1 0)));
        check_true "t2(0) lost" (r.Engine.finish_time 0 (id 2 0) = None));
    case "messages in flight are lost with their sender" (fun () ->
        (* t0 on P0 finishes at 1 and sends [1,2] to t1 on P1; crashing P0
           at 1.5 loses the transfer, so t1 never runs and the single-copy
           output is lost *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0 ]) ];
        let r = simulate ~config:(closed ~timed_failures:[ (0, 1.5) ] ()) m in
        check_true "output lost" (r.Engine.item_latency.(0) = None);
        check_int "no completed transfer" 0 (List.length r.Engine.messages));
    case "later items fail over to the surviving lane mid-stream" (fun () ->
        let m = lanes () in
        (* P0 crashes during item 1: item 0 comes from lane 0, item 1's
           output must still be delivered by lane 1 *)
        let r =
          simulate
            ~config:(closed ~n_items:3 ~period:10.0 ~timed_failures:[ (0, 12.0) ] ())
            m
        in
        Array.iter
          (fun l -> check_true "every item delivered" (l <> None))
          r.Engine.item_latency);
    case "negative failure times are rejected" (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "") (fun () ->
            try
              ignore (simulate ~config:(closed ~timed_failures:[ (0, -1.0) ] ()) (lanes ()))
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "duplicate processors in timed_failures are rejected" (fun () ->
        Alcotest.check_raises "duplicate" (Invalid_argument "") (fun () ->
            try
              ignore
                (simulate
                   ~config:(closed ~timed_failures:[ (0, 1.0); (0, 2.0) ] ())
                   (lanes ()))
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "a crash at time zero equals fail-silent on paper instances (QCheck)"
      (fun () ->
        let prop seed =
          let inst = Fixtures.paper_instance ~seed () in
          let throughput = Paper_workload.throughput ~eps:1 in
          let m =
            Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
              (Types.problem ~dag:inst.Paper_workload.dag
                 ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)
          in
          let p = seed mod Platform.size (Mapping.platform m) in
          let a = simulate ~config:(closed ~n_items:3 ~failed:[ p ] ()) m in
          let b =
            simulate ~config:(closed ~n_items:3 ~timed_failures:[ (p, 0.0) ] ()) m
          in
          let lat r =
            Array.to_list
              (Array.map
                 (function
                   | None -> Int64.min_int | Some l -> Int64.bits_of_float l)
                 r.Engine.item_latency)
          in
          lat a = lat b
          && Int64.bits_of_float a.Engine.makespan
             = Int64.bits_of_float b.Engine.makespan
          && List.length a.Engine.messages = List.length b.Engine.messages
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:15 ~name:"timed-zero-equals-failed"
             QCheck.(int_range 0 10_000)
             prop));
  ]

(* ------------------------------------------------------------------ *)
(* Engine: epoch resume                                                 *)
(* ------------------------------------------------------------------ *)

let epoch_tests =
  let lat_bits r =
    Array.to_list
      (Array.map
         (function None -> Int64.min_int | Some l -> Int64.bits_of_float l)
         r.Engine.item_latency)
  in
  [
    case "a clock shift leaves per-item latencies bit-identical" (fun () ->
        let m = lanes () in
        let base = simulate ~config:(closed ~n_items:3 ~period:10.0 ()) m in
        let shifted =
          simulate
            ~config:
              (closed ~snapshot:{ Engine.clock = 7.5 } ~n_items:3
                 ~period:10.0 ())
            m
        in
        Alcotest.(check (list int64))
          "latencies are injection-relative" (lat_bits base) (lat_bits shifted);
        check_float "makespan shifts with the clock"
          (base.Engine.makespan +. 7.5)
          shifted.Engine.makespan);
    case "a crash at or before the resume clock is statically pruned"
      (fun () ->
        let m = lanes () in
        let via_failed =
          simulate
            ~config:
              (closed ~snapshot:{ Engine.clock = 5.0 } ~failed:[ 0 ] ~n_items:2
                 ~period:10.0 ())
            m
        in
        let via_timed =
          simulate
            ~config:
              (closed ~snapshot:{ Engine.clock = 5.0 } ~n_items:2
                 ~period:10.0 ~timed_failures:[ (0, 3.0) ] ())
            m
        in
        Alcotest.(check (list int64))
          "same outcome" (lat_bits via_failed) (lat_bits via_timed));
    case "boot snapshot equals not passing one" (fun () ->
        let m = lanes () in
        let a = simulate ~config:(closed ~n_items:2 ~period:10.0 ()) m in
        let b =
          simulate
            ~config:
              (closed ~snapshot:{ Engine.clock = 0.0 } ~n_items:2
                 ~period:10.0 ())
            m
        in
        Alcotest.(check (list int64)) "identical" (lat_bits a) (lat_bits b);
        check_float "same makespan" a.Engine.makespan b.Engine.makespan);
    case "a mid-epoch crash after resume loses the in-flight work" (fun () ->
        (* lane 0 runs items [10,13) and [20,23); crashing P0 at 21.5 after
           resuming at 10 must still deliver every item via lane 1 *)
        let m = lanes () in
        let r =
          simulate
            ~config:
              (closed ~snapshot:{ Engine.clock = 10.0 } ~n_items:2
                 ~period:10.0
                 ~timed_failures:[ (0, 21.5) ]
                 ())
            m
        in
        Array.iter
          (fun l -> check_true "delivered by the survivor" (l <> None))
          r.Engine.item_latency;
        check_true "t2(0) of item 1 lost with P0"
          (r.Engine.finish_time 1 (id 2 0) = None));
    case "negative or non-finite snapshot clocks are rejected" (fun () ->
        List.iter
          (fun clock ->
            Alcotest.check_raises "bad clock" (Invalid_argument "") (fun () ->
                try
                  ignore
                    (simulate
                       ~config:(closed ~snapshot:{ Engine.clock } ())
                       (lanes ()))
                with Invalid_argument _ -> raise (Invalid_argument "")))
          [ -1.0; Float.nan; Float.infinity ]);
  ]

(* ------------------------------------------------------------------ *)
(* Stage-synchronous latency                                           *)
(* ------------------------------------------------------------------ *)

(* The stage model of a mapping at throughput 0.1 (period 10), as a
   crash-estimator source. *)
let stages m =
  Crash.Of_stages { plan = Replica_graph.compile m; throughput = 0.1 }

let depth ?failed m = Replica_graph.depth ?failed (Replica_graph.compile m)

let stage_latency_tests =
  [
    case "lanes have depth one" (fun () ->
        check_int "depth" 1 (Option.get (depth (lanes ())));
        check_float "latency = period" 10.0
          (Option.get
             (Stage_latency.latency_of_plan
                (Replica_graph.compile (lanes ()))
                ~throughput:0.1)));
    case "spread diamond has depth three" (fun () ->
        let m = Mapping.create ~dag:Fixtures.diamond4 ~platform:Fixtures.hetero4 ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0 ]) ];
        place m 2 0 2 [ (0, [ id 0 0 ]) ];
        place m 3 0 3 [ (1, [ id 1 0 ]); (2, [ id 2 0 ]) ];
        check_int "depth" 3 (Option.get (depth m)));
    case "effective depth takes the best source" (fun () ->
        (* t1(0) has a local and a remote source: the local one wins *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 3) ~eps:1 in
        place m 0 0 0 [];
        place m 0 1 1 [];
        place m 1 0 0 [ (0, [ id 0 0; id 0 1 ]) ];
        place m 1 1 2 [ (0, [ id 0 0; id 0 1 ]) ];
        check_int "official stages take the max" 2 (Metrics.stage_depth m);
        check_int "effective depth takes the min" 1
          (Option.get (depth m)));
    case "failures can only increase the depth" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 3) ~eps:1 in
        place m 0 0 0 [];
        place m 0 1 1 [];
        place m 1 0 0 [ (0, [ id 0 0; id 0 1 ]) ];
        place m 1 1 2 [ (0, [ id 0 0; id 0 1 ]) ];
        let healthy = Option.get (depth m) in
        (* failing P0 kills the lane exit; the survivor pays a hop *)
        let degraded = Option.get (depth ~failed:[ 0 ] m) in
        check_int "healthy" 1 healthy;
        check_int "degraded" 2 degraded);
    case "defeated schedules return None" (fun () ->
        check_true "both lanes"
          (depth ~failed:[ 0; 1 ] (lanes ()) = None));
    case "mean crash latency over draws" (fun () ->
        let rng = Rng.create ~seed:3 in
        let e =
          Crash.estimate ~source:(stages (lanes ()))
            ~method_:(Crash.Sampled { crashes = 1; draws = 16; rng })
            ()
        in
        (* any single crash leaves depth 1 *)
        check_float "still one stage" 10.0 (Option.get e.Crash.est_mean));
    case "empty graph has depth zero" (fun () ->
        let m = Mapping.create ~dag:Fixtures.empty ~platform:(Fixtures.uniform 1) ~eps:0 in
        check_int "zero" 0 (Option.get (depth m)));
    case "failed processor out of range is rejected" (fun () ->
        let plan = Replica_graph.compile (lanes ()) in
        let m = Platform.size (Mapping.platform (lanes ())) in
        List.iter
          (fun p ->
            Alcotest.check_raises
              (Printf.sprintf "failed:[%d]" p)
              (Invalid_argument "Replica_graph.depth: processor out of range")
              (fun () ->
                ignore
                  (Stage_latency.latency_of_plan ~failed:[ p ] plan
                     ~throughput:0.1)))
          [ m; -1 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Crash sampling                                                      *)
(* ------------------------------------------------------------------ *)

let estimate_on m method_ =
  Crash.estimate ~source:(Crash.Of_mapping m) ~method_ ()

(* The mapping under both latency models: the engine and the stage model. *)
let both_models m = [ Crash.Of_mapping m; stages m ]

(* [method_] on [source] raises [Invalid_argument] naming the estimator. *)
let rejects source method_ =
  match Crash.estimate ~source ~method_ () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_true
        (Printf.sprintf "message names Crash.estimate: %s" msg)
        (String.starts_with ~prefix:"Crash.estimate:" msg)

let crash_tests =
  [
    case "a fixed failure set is deterministic" (fun () ->
        let e = estimate_on (lanes ()) (Crash.Fixed [ 1 ]) in
        check_float "latency" 3.0 (Option.get e.Crash.est_mean);
        Alcotest.(check (list int)) "failed set" [ 1 ] e.Crash.est_failed;
        check_float "survivor defeat probability" 0.0 e.Crash.est_p_defeat;
        check_int "one replay, no draws" 1 e.Crash.est_evaluations;
        check_int "no randomness" 0 e.Crash.est_draws);
    case "sampling draws distinct processors" (fun () ->
        let rng = Rng.create ~seed:9 in
        for _ = 1 to 32 do
          let e =
            estimate_on (lanes ()) (Crash.Sampled { crashes = 3; draws = 1; rng })
          in
          check_int "three distinct" 3
            (List.length (List.sort_uniq compare e.Crash.est_failed))
        done);
    case "sampling rejects too many crashes" (fun () ->
        Alcotest.check_raises "too many" (Invalid_argument "") (fun () ->
            try
              ignore
                (estimate_on (lanes ())
                   (Crash.Sampled
                      { crashes = 5; draws = 1; rng = Rng.create ~seed:1 }))
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "mean over surviving draws" (fun () ->
        let rng = Rng.create ~seed:4 in
        let e =
          estimate_on (lanes ()) (Crash.Sampled { crashes = 1; draws = 10; rng })
        in
        check_float "all draws survive at 3.0" 3.0 (Option.get e.Crash.est_mean));
    case "zero draws yield an empty estimate and a nan defeat rate" (fun () ->
        List.iter
          (fun source ->
            let e =
              Crash.estimate ~source
                ~method_:
                  (Crash.Sampled
                     { crashes = 1; draws = 0; rng = Rng.create ~seed:3 })
                ()
            in
            check_int "no draws" 0 e.Crash.est_draws;
            check_int "no defeats" 0 e.Crash.est_defeated;
            check_true "no mean" (e.Crash.est_mean = None);
            check_true "nan, not zero" (Float.is_nan e.Crash.est_p_defeat))
          (both_models (lanes ())));
    case "negative run counts are rejected" (fun () ->
        List.iter
          (fun source ->
            rejects source
              (Crash.Sampled
                 { crashes = 1; draws = -1; rng = Rng.create ~seed:1 }))
          (both_models (lanes ())));
    case "crash counts outside [0, m] are rejected up front" (fun () ->
        (* lanes has four processors: a negative count used to spin
           forever, and an oversized one passed when no draw ran *)
        List.iter
          (fun source ->
            List.iter (rejects source)
              [
                Crash.Sampled
                  { crashes = -1; draws = 1; rng = Rng.create ~seed:1 };
                Crash.Sampled
                  { crashes = 9; draws = 0; rng = Rng.create ~seed:1 };
                Crash.Exact { crashes = -1; max_evaluations = None };
                Crash.Exact { crashes = 5; max_evaluations = None };
              ])
          (both_models (lanes ())));
    case "fixed processors outside [0, m) are rejected" (fun () ->
        List.iter
          (fun source ->
            List.iter (rejects source)
              [ Crash.Fixed [ 7 ]; Crash.Fixed [ 1; -1 ] ])
          (both_models (lanes ())));
    case "all-defeated runs keep a defined defeat rate" (fun () ->
        (* an unreplicated chain using every processor: any single crash
           defeats it, so the rate is exactly 1 and the mean is None *)
        let m =
          Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 3)
            ~eps:0
        in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0 ]) ];
        place m 2 0 2 [ (1, [ id 1 0 ]) ];
        let rng = Rng.create ~seed:5 in
        let e = estimate_on m (Crash.Sampled { crashes = 1; draws = 8; rng }) in
        check_int "all defeated" 8 e.Crash.est_defeated;
        check_true "no mean" (e.Crash.est_mean = None);
        check_float "rate one" 1.0 e.Crash.est_p_defeat);
    case "exact defeat rates match the hand count" (fun () ->
        (* lanes: defeat iff {0, 1} is contained in the failure set *)
        let exact c =
          (estimate_on (lanes ())
             (Crash.Exact { crashes = c; max_evaluations = None }))
            .Crash.est_p_defeat
        in
        check_float "c = 1" 0.0 (exact 1);
        check_float "c = 2 is 1/6" (1.0 /. 6.0) (exact 2);
        check_float "c = 3 is 1/2" 0.5 (exact 3));
    case "exact enumeration agrees with the calculus and the engine" (fun () ->
        let e =
          estimate_on (lanes ())
            (Crash.Exact { crashes = 2; max_evaluations = None })
        in
        check_int "all six pairs replayed" 6 e.Crash.est_evaluations;
        check_int "exactly one defeated pair" 1 e.Crash.est_defeated;
        check_float "survivors all deliver 3.0" 3.0
          (Option.get e.Crash.est_mean);
        (* the analytic calculus agrees with the enumeration *)
        let t = Reliability.analyze ~max_cut_card:2 (lanes ()) in
        check_float "calculus agrees"
          (Reliability.defeat_probability t (Reliability.Uniform_crashes 2))
          e.Crash.est_p_defeat;
        let stage =
          Crash.estimate ~source:(stages (lanes ()))
            ~method_:(Crash.Exact { crashes = 2; max_evaluations = None })
            ()
        in
        check_float "stage model agrees on defeat" e.Crash.est_p_defeat
          stage.Crash.est_p_defeat;
        check_float "one stage at period 10" 10.0
          (Option.get stage.Crash.est_mean);
        check_int "the stage model replays nothing" 0
          stage.Crash.est_evaluations);
    case "exact enumeration respects its budget" (fun () ->
        Alcotest.check_raises "over budget" (Invalid_argument "") (fun () ->
            try
              ignore
                (estimate_on (lanes ())
                   (Crash.Exact { crashes = 2; max_evaluations = Some 3 }))
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "an exact budget test on 62 processors fails at once" (fun () ->
        (* choose (62, 27) is about 2.8e17 sets, and an int binomial wraps
           negative there, which would let this enumeration start.  If the
           budget test is ever bypassed, the alarm ends the run instead of
           hanging the suite. *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m =
          Fixtures.must_schedule `Ltf
            (Types.problem ~dag ~platform:(Fixtures.uniform 62) ~eps:1
               ~throughput:0.1)
        in
        ignore (Unix.alarm 10);
        Fun.protect
          ~finally:(fun () -> ignore (Unix.alarm 0))
          (fun () ->
            Alcotest.check_raises "over budget"
              (Invalid_argument "Crash.estimate: exact enumeration over budget")
              (fun () ->
                ignore
                  (Crash.estimate ~source:(Crash.Of_mapping m)
                     ~method_:(Crash.Exact { crashes = 27; max_evaluations = None })
                     ()))));
    case "fixed sets mark defeat" (fun () ->
        let alive = estimate_on (lanes ()) (Crash.Fixed [ 1 ]) in
        check_int "survivor not defeated" 0 alive.Crash.est_defeated;
        let dead = estimate_on (lanes ()) (Crash.Fixed [ 0; 1 ]) in
        check_true "no latency" (dead.Crash.est_mean = None);
        check_int "defeated" 1 dead.Crash.est_defeated;
        check_float "certain defeat" 1.0 dead.Crash.est_p_defeat);
    case "sampled estimates count defeated draws" (fun () ->
        (* two crashes on the four-processor lanes: only the {0,1} pair
           (1 of 6) kills both lanes, so a long run sees some but not
           only defeats *)
        let rng = Rng.create ~seed:11 in
        let e =
          estimate_on (lanes ()) (Crash.Sampled { crashes = 2; draws = 48; rng })
        in
        check_int "every draw counted" 48 e.Crash.est_draws;
        check_true "some defeats" (e.Crash.est_defeated > 0);
        check_true "not all defeats" (e.Crash.est_defeated < 48);
        check_float "defeat rate"
          (float_of_int e.Crash.est_defeated /. 48.0)
          e.Crash.est_p_defeat;
        check_float "surviving draws still deliver 3.0" 3.0
          (Option.get e.Crash.est_mean));
    case "equal seeds give equal estimates" (fun () ->
        let run () =
          estimate_on (lanes ())
            (Crash.Sampled
               { crashes = 2; draws = 16; rng = Rng.create ~seed:21 })
        in
        (* the estimate is a pure function of the seed (CRN discipline) *)
        check_true "bit-identical" (run () = run ()));
    case "stage-latency stats expose the defeat rate" (fun () ->
        let rng = Rng.create ~seed:5 in
        let e =
          Crash.estimate ~source:(stages (lanes ()))
            ~method_:(Crash.Sampled { crashes = 2; draws = 48; rng })
            ()
        in
        check_int "draws" 48 e.Crash.est_draws;
        check_true "defeats seen" (e.Crash.est_defeated > 0);
        check_true "rate in (0,1)"
          (e.Crash.est_p_defeat > 0.0 && e.Crash.est_p_defeat < 1.0));
  ]

(* ------------------------------------------------------------------ *)
(* Compiled programs: a fresh compile ≡ a reused program and arena     *)
(* ------------------------------------------------------------------ *)

(* Bit-exact serialization of everything a result exposes: the full
   message log, every instance start/finish, per-item latencies, the
   period and the makespan.  Two runs with equal fingerprints replayed
   the exact same event sequence. *)
let result_fingerprint m (r : Engine.result) =
  let n_tasks = Dag.size (Mapping.dag m) and copies = Mapping.n_copies m in
  let n_items = Array.length r.Engine.item_latency in
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
  let add_opt = function
    | None -> Buffer.add_string buf "-;"
    | Some v -> Buffer.add_string buf (Printf.sprintf "%h;" v)
  in
  for item = 0 to n_items - 1 do
    for task = 0 to n_tasks - 1 do
      for copy = 0 to copies - 1 do
        add_opt (r.Engine.start_time item { Replica.task; copy });
        add_opt (r.Engine.finish_time item { Replica.task; copy })
      done
    done
  done;
  Array.iter add_opt r.Engine.item_latency;
  Buffer.add_string buf (Printf.sprintf "P%h;M%h" r.Engine.period r.Engine.makespan);
  Buffer.contents buf

(* The pinned-digest serialization (messages, latencies, period,
   makespan) — shared by the legacy-engine guard and the arena-reuse
   guard so both pin the exact same bytes. *)
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

(* [result_fingerprint] plus the open-traffic and fault ledgers
   (arrivals, injections, dropped / stalled / peak queue / stall time and
   every [fault_stats] field), hashed. *)
let full_digest m (r : Engine.result) =
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  let f = r.Engine.faults in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          [
            result_fingerprint m r;
            floats r.Engine.arrivals;
            floats r.Engine.injections;
            Printf.sprintf "D%d;S%d;Q%d;T%h" r.Engine.dropped r.Engine.stalled
              r.Engine.peak_queue r.Engine.stall_time;
            Printf.sprintf "R%d;B%h;E%d;C%d;X%d;%s;G%d;L%d" f.Engine.retries
              f.Engine.backoff_time f.Engine.exec_faults f.Engine.comm_faults
              f.Engine.exhausted
              (String.concat "," (Array.to_list (Array.map string_of_int f.Engine.exhausted_on)))
              f.Engine.slowed_attempts f.Engine.degraded_transfers;
          ]))

(* The seed-2009 [Spec.default] R-LTF mapping every pinned digest runs. *)
let pinned_mapping () =
  let inst = Fixtures.paper_instance ~seed:2009 () in
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
       ~eps:1 ~throughput:(Paper_workload.throughput ~eps:1))

let fault_scenario =
  {
    Faults.transient =
      {
        Faults.Transient.exec_rate = 0.05;
        comm_rate = 0.05;
        exec_windows = [ (2, 20.0, 40.0) ];
        comm_windows = [ (3, 10.0, 30.0) ];
        seed = 7;
      };
    retry = Faults.Backoff.make ~base_delay:0.5 ~max_retries:3 ();
    gray =
      {
        Faults.Gray.stragglers =
          [ (1, { Faults.Gray.g_from = 0.0; g_until = 80.0; factor = 1.5 }) ];
        links = [ ((4, 7), { Faults.Gray.g_from = 0.0; g_until = 100.0; factor = 2.0 }) ];
      };
  }

(* Transient transfer faults alone, re-driven at most twice: a retried
   transfer commits after the transfers created around it have arrived
   and their message-pool slots have been reused, so neither its fault
   draws nor its full-tie rank may depend on which slot it holds. *)
let comm_fault_scenario =
  {
    Faults.none with
    Faults.transient =
      { Faults.Transient.none with comm_rate = 0.1; seed = 29 };
    retry = Faults.Backoff.make ~base_delay:0.5 ~max_retries:2 ();
  }

(* A fork-join whose branches tie on bottom level, R-LTF-mapped with one
   replica per task onto four unit processors: equal-priority transfers
   and ready instances fall back to their tie-breaks. *)
let tie_mapping () =
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:(Classic.fork_join ~width:4 ~exec:1.0 ~volume:1.0)
       ~platform:(Fixtures.uniform 4) ~eps:1 ~throughput:0.2)

(* A unit-weight chain, R-LTF-mapped onto [hetero4]: one entry task
   whose two replicas run at different speeds, so a crash of the slower
   one can leave the source blocked on it alone. *)
let hetero_chain_mapping () =
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:Fixtures.chain3 ~platform:Fixtures.hetero4 ~eps:1
       ~throughput:0.2)

(* A unit-weight chain on unit processors: every finish instant is an
   integer, so integer trace offsets coincide with finishes. *)
let chain_mapping () =
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
    (Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1
       ~throughput:0.2)

(* One config per engine path the closed-mode digest leaves unguarded:
   bounded Block and Drop_newest queues, transient and gray faults, timed
   failures under open traffic, a snapshot resume, crashes whose instants
   no event marks (a transfer toward the crashed processor becomes
   committable at the next event, whatever its receive port is doing),
   a slow entry replica crashing under a blocked backlog while its
   faster twin sits idle (only the crash can re-open admission), tied
   task priorities, and arrivals that tie with finishes (the arrival is
   handled first).  Each entry names the mapping it runs on; [m] is the
   seed-2009 pinned mapping. *)
let pinned_configs m =
  let q = Metrics.period m in
  let tie = tie_mapping () and chain = chain_mapping () in
  let hetero = hetero_chain_mapping () in
  let slow_entry = (Mapping.replica_exn hetero 0 1).Replica.proc in
  List.map
    (fun (name, config) -> (name, m, config))
    [
      ( "open Poisson, Block, bound 4",
        Engine.Run.open_ ~queue_bound:4 ~policy:Engine.Run.Block
          ~rng:(Rng.create ~seed:11) ~n_items:40
          (Arrival.Poisson { rate = 1.3 /. q }) );
      ( "open MMPP, Drop_newest, bound 1",
        Engine.Run.open_ ~queue_bound:1 ~policy:Engine.Run.Drop_newest
          ~rng:(Rng.create ~seed:12) ~n_items:40
          (Arrival.Mmpp
             {
               burst_rate = 3.0 /. q;
               idle_rate = 0.3 /. q;
               mean_burst = 5.0 *. q;
               mean_idle = 5.0 *. q;
             }) );
      ( "closed, transient and gray faults",
        Engine.Run.with_faults fault_scenario (closed ~n_items:8 ()) );
      ( "open, two timed failures",
        {
          (Engine.Run.open_ ~queue_bound:4 ~rng:(Rng.create ~seed:13) ~n_items:30
             (Arrival.Poisson { rate = 0.9 /. q }))
          with
          Engine.Run.timed_failures = [ (1, 55.0); (4, 130.0) ];
        } );
      ( "snapshot resume",
        closed
          ~snapshot:{ Engine.clock = 30.0 } ~failed:[ 2 ]
          ~n_items:6 ~timed_failures:[ (5, 90.0) ] () );
      ( "closed, crashes at 50 and 81",
        closed ~n_items:8 ~timed_failures:[ (10, 50.0); (17, 81.0) ] () );
      (* Processors 5 and 16 crashed in earlier epochs and host replicas:
         dropping either from [failed] changes the digest. *)
      ( "open resume with two processors down",
        {
          (Engine.Run.open_ ~queue_bound:3 ~rng:(Rng.create ~seed:17) ~n_items:24
             (Arrival.Poisson { rate = 1.1 /. q }))
          with
          Engine.Run.snapshot = Some { Engine.clock = 45.0 };
          failed = [ 5; 16 ];
          timed_failures = [ (6, 120.0) ];
        } );
    ]
  @ [
      ( "open Poisson, Block, bound 1, entry processor crashes mid-backlog",
        hetero,
        {
          (Engine.Run.open_ ~queue_bound:1 ~rng:(Rng.create ~seed:19) ~n_items:30
             (Arrival.Poisson { rate = 1.5 /. Metrics.period hetero }))
          with
          Engine.Run.timed_failures = [ (slow_entry, 8.0) ];
        } );
      ( "fork-join with tied priorities, open Poisson, Block, bound 2",
        tie,
        Engine.Run.open_ ~queue_bound:2 ~rng:(Rng.create ~seed:23) ~n_items:30
          (Arrival.Poisson { rate = 1.2 /. Metrics.period tie }) );
      ( "repeated trace offsets on finish instants, Drop_newest, bound 1",
        chain,
        Engine.Run.open_ ~queue_bound:1 ~policy:Engine.Run.Drop_newest ~n_items:18
          (Arrival.Trace (List.init 18 (fun k -> float_of_int (2 * k / 3)))) );
      ( "closed, transient transfer faults retried on recycled slots",
        m,
        Engine.Run.with_faults comm_fault_scenario (closed ~n_items:12 ()) );
    ]

let compiled_tests =
  [
    case "a fresh compile equals a reused program and arena (QCheck)" (fun () ->
        let prop seed =
          let inst = Fixtures.paper_instance ~seed () in
          let throughput = Paper_workload.throughput ~eps:1 in
          let m =
            Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
              (Types.problem ~dag:inst.Paper_workload.dag
                 ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)
          in
          (* One program and one arena serve every scenario: a run must
             leave no state behind in either.  Configs are thunks so each
             run draws its open-traffic arrivals from a fresh generator. *)
          let prog = Engine.compile m in
          let state = Engine.Run_state.create prog in
          let n_procs = Platform.size (Mapping.platform m) in
          let p1 = seed mod n_procs and p2 = (seed / 7) mod n_procs in
          let q = Engine.program_period prog in
          let arrivals ~n_items ?queue_bound ?policy load =
            Engine.Run.open_ ?queue_bound ?policy ~rng:(Rng.create ~seed) ~n_items
              (Arrival.Poisson { rate = load /. q })
          in
          let faults =
            {
              fault_scenario with
              Faults.transient = { fault_scenario.Faults.transient with seed };
            }
          in
          let gray_only = { Faults.none with Faults.gray = fault_scenario.Faults.gray } in
          let configs =
            [
              (fun () -> closed ~n_items:3 ());
              (fun () -> closed ~n_items:2 ~failed:[ p1 ] ());
              (fun () -> closed ~n_items:4 ~timed_failures:[ (p1, 40.0) ] ());
              (fun () ->
                closed
                  ~snapshot:{ Engine.clock = 30.0 } ~failed:[ p2 ]
                  ~n_items:3
                  ~timed_failures:(if p1 = p2 then [] else [ (p1, 75.0) ])
                  ());
              (fun () -> arrivals ~n_items:12 ~queue_bound:(1 + (seed mod 4)) 1.3);
              (fun () -> arrivals ~n_items:12 ~queue_bound:1 ~policy:Engine.Run.Drop_newest 1.5);
              (fun () -> arrivals ~n_items:8 ~policy:Engine.Run.Drop_newest 1.2);
              (fun () -> arrivals ~n_items:8 0.8);
              (fun () -> Engine.Run.with_faults faults (closed ~n_items:3 ()));
              (fun () ->
                {
                  (Engine.Run.with_faults faults (arrivals ~n_items:10 ~queue_bound:2 1.1))
                  with
                  Engine.Run.timed_failures = [ (p1, 40.0) ];
                });
              (fun () ->
                Engine.Run.without_messages
                  (closed ~n_items:3 ~timed_failures:[ (p1, 40.0) ] ()));
              (fun () -> Engine.Run.with_faults gray_only (closed ~n_items:4 ()));
            ]
          in
          (* Forward then backward, so every config also runs right after
             a different one has dirtied the arena. *)
          List.for_all
            (fun config ->
              let fresh = full_digest m (simulate ~config:(config ()) m) in
              fresh = full_digest m (Engine.simulate ~state ~config:(config ()) prog))
            (configs @ List.rev configs)
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:10 ~name:"fresh-compile-equals-reused"
             QCheck.(int_range 0 10_000)
             prop));
    case "pinned message-log digest on a paper-scale workload" (fun () ->
        (* Byte-identity guard: this digest was recorded with the legacy
           list-based engine before the compile/run split.  Any change to
           event order, tie-breaks or float expressions breaks it. *)
        let m = pinned_mapping () in
        let r =
          simulate
            ~config:(closed ~n_items:8 ~timed_failures:[ (1, 55.0); (4, 130.0) ] ())
            m
        in
        check_int "message count" 1415 (List.length r.Engine.messages);
        Alcotest.(check string)
          "digest" "86751422180444b1ec5c84c1e9506b12" (digest_of_result r));
    case "pinned digests of the open, fault and resume paths" (fun () ->
        (* The first seven were recorded before the event-driven
           dispatch rewrite, the next three before arrivals left the
           event heap, the last before message-pool slots were reused:
           any change to event order, tie-breaks, admission or fault
           draws on these paths breaks one of them. *)
        List.iter2
          (fun (name, m, config) expected ->
            let r = simulate ~config m in
            Alcotest.(check string) name expected (full_digest m r))
          (pinned_configs (pinned_mapping ()))
          [
            "135591b1b56439aa52b40d19c8e079c2";
            "7e6e03a54b4de3731cf499b163c61db4";
            "03d5590b02905ea67dc39f83850d6c57";
            "96f0995c0ebcde7ddaecade8f38d408d";
            "829ba11c399e10373fab2dea8f0be312";
            "c3a010334c94c86960cbc8dd13fffc01";
            "0ed1d47ce92e7be70a091414efebd1b5";
            "88f04859b87500d587faf29f69a2bdf9";
            "a9d554cf4030c878fb8a63a7059f0a09";
            "9039a3a1c091bb999c15c5ba9c0acff1";
            "023b5528c84b6c668487e084671c1e66";
          ]);
    case "transient fault draws allocate a bounded few words per event"
      (fun () ->
        (* The pinned fault configs with gray windows left out (a gray
           factor is a float returned across the module boundary), run
           log off through a warm arena.  A draw that took its clock as a
           [float] argument boxed it: about 2 words per event on both. *)
        let m = pinned_mapping () in
        let prog = Engine.compile m in
        let state = Engine.Run_state.create prog in
        List.iter
          (fun (name, faults, n_items) ->
            let config =
              Engine.Run.without_messages
                (Engine.Run.with_faults faults (closed ~n_items ()))
            in
            ignore (Engine.simulate ~state ~config prog);
            Obs.set_enabled true;
            Obs.reset ();
            let events =
              Fun.protect
                ~finally:(fun () ->
                  Obs.set_enabled false;
                  Obs.reset ())
                (fun () ->
                  ignore (Engine.simulate ~state ~config prog);
                  Obs.Registry.counter (Obs.snapshot ()) "sim.events_popped")
            in
            let best = ref infinity in
            for _ = 1 to 3 do
              let before = Gc.minor_words () in
              ignore (Sys.opaque_identity (Engine.simulate ~state ~config prog));
              best := Float.min !best (Gc.minor_words () -. before)
            done;
            let per = !best /. float_of_int events in
            check_true (name ^ ": events counted") (events > 0);
            if per > 1.0 then
              Alcotest.failf "%s: %.3f minor words per event (ceiling 1)" name
                per)
          [
            ( "transient faults",
              { fault_scenario with Faults.gray = Faults.Gray.none },
              8 );
            ("transient transfer faults", comm_fault_scenario, 12);
          ]);
    case "identically-shaped messages both serialize on the port" (fun () ->
        (* A source listed twice yields two structurally identical pending
           transfers; removal by index (not structural or physical
           equality) must keep them distinct, so both occupy the one-port
           in turn: [1,2) then [2,3). *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
        place m 0 0 0 [];
        place m 1 0 1 [ (0, [ id 0 0; id 0 0 ]) ];
        let check_result (r : Engine.result) =
          check_int "both transfers completed" 2 (List.length r.Engine.messages);
          (match r.Engine.messages with
          | [ m1; m2 ] ->
              check_float "first occupies [1,2)" 2.0 m1.Engine.msg_finish;
              check_float "second occupies [2,3)" 3.0 m2.Engine.msg_finish
          | _ -> Alcotest.fail "expected exactly two messages");
          check_float "consumer starts at first arrival" 2.0
            (Option.get (r.Engine.start_time 0 (id 1 0)))
        in
        check_result (simulate m));
    case "a program is reusable: back-to-back runs are identical" (fun () ->
        let m = lanes () in
        let prog = Engine.compile m in
        let config = closed ~n_items:3 ~period:1.5 () in
        let a = Engine.simulate ~config prog in
        let b = Engine.simulate ~config prog in
        Alcotest.(check string)
          "no state leaks between runs" (result_fingerprint m a)
          (result_fingerprint m b);
        let crashy =
          Engine.simulate
            ~config:(closed ~n_items:2 ~timed_failures:[ (0, 1.5) ] ())
            prog
        in
        let again = Engine.simulate ~config prog in
        check_true "a crashy run does not poison the program"
          (result_fingerprint m again = result_fingerprint m a);
        check_true "crashy run lost lane 0's tail"
          (crashy.Engine.finish_time 0 (id 2 0) = None));
    case "program accessors" (fun () ->
        let m = lanes () in
        let prog = Engine.compile m in
        check_true "mapping is the compiled one" (Engine.program_mapping prog == m);
        check_float "cached period" (Metrics.period m)
          (Engine.program_period prog));
    case "compile rejects incomplete mappings" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
        Alcotest.check_raises "incomplete" (Invalid_argument "") (fun () ->
            try ignore (Engine.compile m)
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "crash sampling over a program matches the mapping path" (fun () ->
        let m = lanes () in
        let prog = Engine.compile m in
        let method_ seed =
          Crash.Sampled { crashes = 2; draws = 24; rng = Rng.create ~seed }
        in
        let plain =
          Crash.estimate ~source:(Crash.Of_mapping m) ~method_:(method_ 17) ()
        in
        let compiled =
          Crash.estimate ~source:(Crash.Of_program prog) ~method_:(method_ 17) ()
        in
        check_true "same estimate" (plain = compiled));
  ]

(* ------------------------------------------------------------------ *)
(* The run-state arena, the program cache and the parallel estimator.  *)

let estimate_fingerprint (e : Crash.estimate) =
  (* String form so NaN p_defeat (zero draws) still compares equal. *)
  Printf.sprintf "%d;%d;%d;%d;%h;%s;%s" e.Crash.est_crashes e.Crash.est_draws
    e.Crash.est_evaluations e.Crash.est_defeated e.Crash.est_p_defeat
    (match e.Crash.est_mean with None -> "-" | Some v -> Printf.sprintf "%h" v)
    (String.concat "," (List.map string_of_int e.Crash.est_failed))

(* A per-draw reference for the engine estimator, which judges defeat with
   the cut predicate and replays each distinct surviving set once.  Here
   every failure set goes through [Crash.Fixed] — the engine alone, with
   no predicate — and the estimate is assembled by hand. *)
let fixed_latency_of program failed =
  (Crash.estimate ~source:(Crash.Of_program program)
     ~method_:(Crash.Fixed failed) ())
    .Crash.est_mean

let estimate_of_latencies ~crashes ~draws ~evaluations ~failed
    (total, survivors) =
  let defeated = evaluations - survivors in
  {
    Crash.est_crashes = crashes;
    est_draws = draws;
    est_evaluations = evaluations;
    est_defeated = defeated;
    est_p_defeat =
      (if evaluations = 0 then nan
       else float_of_int defeated /. float_of_int evaluations);
    est_mean =
      (if survivors = 0 then None
       else Some (total /. float_of_int survivors));
    est_failed = failed;
  }

(* Draw [k]'s set comes from the prefix property (an estimate over [k + 1]
   draws reports it as [est_failed]); the latencies are folded in 32-draw
   chunks, each summed from 0.0, the chunk sums folded in order. *)
let sampled_reference program ~crashes ~draws ~seed =
  let sampled draws =
    Crash.Sampled { crashes; draws; rng = Rng.create ~seed }
  in
  let sets =
    Array.init draws (fun k ->
        (Crash.estimate ~source:(Crash.Of_program program)
           ~method_:(sampled (k + 1)) ())
          .Crash.est_failed)
  in
  let total = ref 0.0 and chunk = ref 0.0 and survivors = ref 0 in
  Array.iteri
    (fun k failed ->
      (match fixed_latency_of program failed with
      | Some l ->
          chunk := !chunk +. l;
          incr survivors
      | None -> ());
      if (k + 1) mod 32 = 0 || k = draws - 1 then begin
        total := !total +. !chunk;
        chunk := 0.0
      end)
    sets;
  estimate_of_latencies ~crashes ~draws ~evaluations:draws
    ~failed:(if draws = 0 then [] else sets.(draws - 1))
    (!total, !survivors)

(* Every [crashes]-subset of [0, n_procs) in lexicographic order, the
   survivors' latencies summed in that order. *)
let exact_reference program ~n_procs ~crashes =
  let rec subsets from c =
    if c = 0 then [ [] ]
    else
      List.concat_map
        (fun u -> List.map (List.cons u) (subsets (u + 1) (c - 1)))
        (List.init (max 0 (n_procs - c - from + 1)) (fun i -> from + i))
  in
  let sets = subsets 0 crashes in
  let total, survivors =
    List.fold_left
      (fun (total, survivors) failed ->
        match fixed_latency_of program failed with
        | Some l -> (total +. l, survivors + 1)
        | None -> (total, survivors))
      (0.0, 0) sets
  in
  estimate_of_latencies ~crashes ~draws:0 ~evaluations:(List.length sets)
    ~failed:[] (total, survivors)

(* The engine estimator at [jobs] 1 and 2 ([Sampled]) and its [Exact]
   enumeration, each against its reference, compared bitwise. *)
let check_against_reference program ~n_procs ~crashes ~draws ~seed =
  let expected =
    estimate_fingerprint (sampled_reference program ~crashes ~draws ~seed)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "sampled c=%d draws=%d -j %d" crashes draws jobs)
        expected
        (estimate_fingerprint
           (Crash.estimate ~jobs ~source:(Crash.Of_program program)
              ~method_:
                (Crash.Sampled { crashes; draws; rng = Rng.create ~seed })
              ())))
    [ 1; 2 ];
  if crashes <= 2 || crashes = n_procs then
    Alcotest.(check string)
      (Printf.sprintf "exact c=%d" crashes)
      (estimate_fingerprint (exact_reference program ~n_procs ~crashes))
      (estimate_fingerprint
         (Crash.estimate ~source:(Crash.Of_program program)
            ~method_:(Crash.Exact { crashes; max_evaluations = None })
            ()))

(* An R-LTF mapping of the paper instance of [seed] at [eps]. *)
let paper_program ~seed ~eps =
  let inst = Fixtures.paper_instance ~seed () in
  let m =
    Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
      (Types.problem ~dag:inst.Paper_workload.dag
         ~platform:inst.Paper_workload.plat ~eps
         ~throughput:(Paper_workload.throughput ~eps))
  in
  (Engine.compile m, Platform.size inst.Paper_workload.plat)

let chain_mapping exec =
  let dag = Classic.chain ~n:2 ~exec ~volume:1.0 in
  let m = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
  place m 0 0 0 [];
  place m 1 0 1 [ (0, [ id 0 0 ]) ];
  m

let arena_cache_tests =
  [
    case "engine estimates equal the per-draw Fixed reference (QCheck)"
      (fun () ->
        let prop seed =
          let eps = seed mod 3 in
          let program, n_procs = paper_program ~seed ~eps in
          check_against_reference program ~n_procs
            ~crashes:(1 + (seed / 3 mod (eps + 2)))
            ~draws:(seed mod 45) ~seed:(seed + 1);
          true
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:6 ~name:"estimate-matches-reference"
             QCheck.(int_range 0 10_000)
             prop));
    case "engine estimates equal the reference at the edges" (fun () ->
        let program, n_procs = paper_program ~seed:7 ~eps:1 in
        (* no crashes: one distinct surviving set *)
        check_against_reference program ~n_procs ~crashes:0 ~draws:40 ~seed:3;
        (* no draws: a nan defeat rate *)
        check_against_reference program ~n_procs ~crashes:2 ~draws:0 ~seed:3;
        (* every processor down: every draw defeated *)
        check_against_reference program ~n_procs ~crashes:n_procs ~draws:33
          ~seed:3;
        let all_down =
          Crash.estimate ~source:(Crash.Of_program program)
            ~method_:
              (Crash.Sampled
                 { crashes = n_procs; draws = 33; rng = Rng.create ~seed:3 })
            ()
        in
        check_float "certain defeat" 1.0 all_down.Crash.est_p_defeat;
        check_true "no mean" (all_down.Crash.est_mean = None));
    case "parallel estimate is bit-identical at -j1/-j2/-j4 (QCheck)" (fun () ->
        let prop seed =
          let inst = Fixtures.paper_instance ~seed () in
          let throughput = Paper_workload.throughput ~eps:1 in
          let m =
            Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
              (Types.problem ~dag:inst.Paper_workload.dag
                 ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)
          in
          let crashes = 1 + (seed mod 3) and draws = seed mod 40 in
          let est source jobs =
            estimate_fingerprint
              (Crash.estimate ~jobs ~source
                 ~method_:
                   (Crash.Sampled
                      { crashes; draws; rng = Rng.create ~seed:(seed + 1) })
                 ())
          in
          List.for_all
            (fun source ->
              let sequential = est source 1 in
              sequential = est source 2 && sequential = est source 4)
            [
              Crash.Of_program (Engine.compile m);
              Crash.Of_stages { plan = Replica_graph.compile m; throughput };
            ]
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:6 ~name:"estimate-jobs-identity"
             QCheck.(int_range 0 10_000)
             prop));
    case "a dirtied arena reproduces the pinned digest" (fun () ->
        (* The exact workload of the pinned message-log digest above, run
           through an arena that a different (open-traffic) scenario has
           already dirtied: the reused arena must reproduce the pinned
           bytes. *)
        let m = pinned_mapping () in
        let prog = Engine.compile m in
        let pinned = closed ~n_items:8 ~timed_failures:[ (1, 55.0); (4, 130.0) ] () in
        let state = Engine.Run_state.create prog in
        let dirty () =
          ignore
            (Engine.simulate ~state
               ~config:
                 (Engine.Run.open_ ~n_items:3
                    (Arrival.Trace [ 0.0; 0.5; 40.0 ]))
               prog)
        in
        dirty ();
        let reused = Engine.simulate ~state ~config:pinned prog in
        Alcotest.(check string)
          "dirty arena" "86751422180444b1ec5c84c1e9506b12"
          (digest_of_result reused));
    case "a rejected config leaves a reused arena as good as fresh" (fun () ->
        (* [simulate] validates a config before it writes to the arena, so
           a valid run right after rejected ones matches a fresh arena. *)
        let m = pinned_mapping () in
        let prog = Engine.compile m in
        let state = Engine.Run_state.create prog in
        let valid = closed ~n_items:4 ~timed_failures:[ (1, 55.0); (4, 60.0) ] () in
        ignore (Engine.simulate ~state ~config:valid prog);
        List.iter
          (fun (name, config) ->
            match Engine.simulate ~state ~config prog with
            | _ -> Alcotest.failf "%s was accepted" name
            | exception Invalid_argument _ -> ())
          [
            ( "duplicate timed_failures processor",
              closed ~n_items:2 ~timed_failures:[ (2, 10.0); (5, 20.0); (2, 30.0) ] () );
            ("out-of-range failed processor", closed ~failed:[ 0; 99 ] ());
          ];
        let fresh = Engine.simulate ~config:valid prog in
        let reused = Engine.simulate ~state ~config:valid prog in
        Alcotest.(check string)
          "same ledgers and times" (full_digest m fresh) (full_digest m reused);
        Alcotest.(check string)
          "same message log" (digest_of_result fresh) (digest_of_result reused));
    case "an arena is rejected by a program of another shape" (fun () ->
        let state = Engine.Run_state.create (Engine.compile (lanes ())) in
        let other = Engine.compile (chain_mapping 1.0) in
        Alcotest.check_raises "shape mismatch"
          (Invalid_argument
             "Engine.simulate: run state was created for a different program")
          (fun () ->
            ignore
              (Engine.simulate ~state
                 ~config:(Engine.Run.closed ~n_items:1 ())
                 other)));
    case "without_messages drops only the log" (fun () ->
        (* The cross-processor chain actually transfers (lanes are
           co-located and log nothing). *)
        let m = chain_mapping 1.0 in
        let prog = Engine.compile m in
        let with_log =
          Engine.simulate ~config:(Engine.Run.closed ~n_items:3 ()) prog
        in
        let without =
          Engine.simulate
            ~config:(Engine.Run.without_messages (Engine.Run.closed ~n_items:3 ()))
            prog
        in
        check_true "log suppressed" (without.Engine.messages = []);
        check_true "log was non-empty" (with_log.Engine.messages <> []);
        Alcotest.(check string)
          "everything else identical"
          (result_fingerprint m { with_log with Engine.messages = [] })
          (result_fingerprint m without));
    case "cache evicts LRU and counts hits and misses" (fun () ->
        let builds = ref 0 in
        let cache =
          Program_cache.create ~capacity:2 (fun m ->
              incr builds;
              Engine.compile m)
        in
        let m1 = chain_mapping 1.0
        and m2 = chain_mapping 2.0
        and m3 = chain_mapping 3.0 in
        ignore (Program_cache.find cache m1);
        ignore (Program_cache.find cache m2);
        ignore (Program_cache.find cache m1);
        check_int "hit skipped the build" 2 !builds;
        ignore (Program_cache.find cache m3);
        check_int "bounded" 2 (Program_cache.length cache);
        check_true "m1 (recently used) survives" (Program_cache.mem cache m1);
        check_true "m2 (LRU) evicted" (not (Program_cache.mem cache m2));
        ignore (Program_cache.find cache m2);
        check_int "hits" 1 (Program_cache.hits cache);
        check_int "misses" 4 (Program_cache.misses cache);
        check_int "builds = misses" 4 !builds;
        Program_cache.clear cache;
        check_int "cleared" 0 (Program_cache.length cache);
        check_int "counters survive clear" 1 (Program_cache.hits cache));
    case "digest keys content, not identity" (fun () ->
        let m = chain_mapping 1.0 in
        let twin = chain_mapping 1.0 in
        check_true "equal content, equal digest"
          (Program_cache.digest m = Program_cache.digest twin);
        check_true "different exec, different digest"
          (Program_cache.digest m <> Program_cache.digest (chain_mapping 2.0));
        (* Mutating a placement must change the key — the self-correcting
           property that lets mutable mappings share one global cache.
           (Digests accept incomplete mappings, so grow one in place.) *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let partial = Mapping.create ~dag ~platform:(Fixtures.uniform 2) ~eps:0 in
        place partial 0 0 0 [];
        let d_before = Program_cache.digest partial in
        place partial 1 0 1 [ (0, [ id 0 0 ]) ];
        check_true "mutation changes the digest"
          (d_before <> Program_cache.digest partial);
        let cache = Program_cache.create ~capacity:4 Engine.compile in
        ignore (Program_cache.find cache twin);
        check_true "structural twin hits" (Program_cache.mem cache (chain_mapping 1.0));
        Alcotest.check_raises "capacity < 1" (Invalid_argument "")
          (fun () ->
            try ignore (Program_cache.create ~capacity:0 Engine.compile)
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "sojourns_into matches sojourns" (fun () ->
        let prog = Engine.compile (lanes ()) in
        let r =
          Engine.simulate
            ~config:
              (Engine.Run.open_ ~n_items:4
                 (Arrival.Trace [ 0.0; 1.0; 2.0; 3.0 ]))
            prog
        in
        let as_list = Engine.sojourns r in
        let buf = Array.make 4 nan in
        let delivered = Engine.sojourns_into r buf in
        check_int "same count" (List.length as_list) delivered;
        let sorted_list = List.sort compare as_list in
        let sorted_buf =
          List.sort compare (Array.to_list (Array.sub buf 0 delivered))
        in
        check_true "same sojourns" (sorted_list = sorted_buf);
        let q_list = Stats.quantiles as_list in
        let q_slice = Stats.quantiles_slice buf ~len:delivered in
        check_float "same p50" q_list.Stats.p50 q_slice.Stats.p50;
        check_float "same p99" q_list.Stats.p99 q_slice.Stats.p99;
        Alcotest.check_raises "short buffer"
          (Invalid_argument
             "Engine.sojourns_into: buffer shorter than item_latency")
          (fun () -> ignore (Engine.sojourns_into r (Array.make 3 0.0))));
  ]

let () =
  Alcotest.run "stream_sim"
    [
      ("event-heap", heap_tests);
      ("engine-timing", engine_tests);
      ("engine-failures", failure_tests);
      ("engine-timed-failures", timed_failure_tests);
      ("engine-epochs", epoch_tests);
      ("engine-pipeline", pipeline_tests);
      ("stage-latency", stage_latency_tests);
      ("crash", crash_tests);
      ("compiled-program", compiled_tests);
      ("arena-and-cache", arena_cache_tests);
    ]
