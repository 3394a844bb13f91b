open Test_support

let case = Fixtures.case
let check_float = Fixtures.check_float
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true

let id task copy = { Replica.task; copy }

(* A hand-built eps=1 mapping of chain3 on four unit processors: two
   disjoint lanes P0 and P1. *)
let lanes_mapping () =
  let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
  let place task copy proc sources =
    Mapping.assign m { Replica.id = id task copy; proc; sources }
  in
  place 0 0 0 [];
  place 0 1 1 [];
  place 1 0 0 [ (0, [ id 0 0 ]) ];
  place 1 1 1 [ (0, [ id 0 1 ]) ];
  place 2 0 0 [ (1, [ id 1 0 ]) ];
  place 2 1 1 [ (1, [ id 1 1 ]) ];
  m

(* A spread eps=0 mapping of the diamond on distinct processors. *)
let spread_mapping () =
  let m = Mapping.create ~dag:Fixtures.diamond4 ~platform:Fixtures.hetero4 ~eps:0 in
  let place task proc sources =
    Mapping.assign m { Replica.id = id task 0; proc; sources }
  in
  place 0 0 [];
  place 1 1 [ (0, [ id 0 0 ]) ];
  place 2 2 [ (0, [ id 0 0 ]) ];
  place 3 3 [ (1, [ id 1 0 ]); (2, [ id 2 0 ]) ];
  m

(* ------------------------------------------------------------------ *)
(* Replica                                                             *)
(* ------------------------------------------------------------------ *)

let replica_tests =
  [
    case "compare orders by task then copy" (fun () ->
        check_true "task first" (Replica.compare_id (id 1 5) (id 2 0) < 0);
        check_true "copy second" (Replica.compare_id (id 1 0) (id 1 1) < 0);
        check_int "equal" 0 (Replica.compare_id (id 3 2) (id 3 2)));
    case "printing" (fun () ->
        Alcotest.(check string) "to_string" "t4(1)" (Replica.id_to_string (id 4 1)));
    case "sources_for" (fun () ->
        let r =
          { Replica.id = id 3 0; proc = 0; sources = [ (1, [ id 1 0 ]); (2, [ id 2 1 ]) ] }
        in
        Alcotest.(check int) "found" 1 (List.length (Replica.sources_for r 2));
        Alcotest.check_raises "missing" Not_found (fun () ->
            ignore (Replica.sources_for r 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let rejects name f =
  case name (fun () ->
      Alcotest.check_raises name (Invalid_argument "") (fun () ->
          try f () with Invalid_argument _ -> raise (Invalid_argument "")))

let mapping_tests =
  [
    case "incremental completeness" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
        check_true "empty not complete" (not (Mapping.is_complete m));
        check_true "task not scheduled" (not (Mapping.scheduled m 0));
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        check_true "half placed" (not (Mapping.scheduled m 0));
        Mapping.assign m { Replica.id = id 0 1; proc = 1; sources = [] };
        check_true "now scheduled" (Mapping.scheduled m 0));
    case "queries on the lane mapping" (fun () ->
        let m = lanes_mapping () in
        check_true "complete" (Mapping.is_complete m);
        check_int "copies" 2 (Mapping.n_copies m);
        check_true "mapped" (Mapping.mapped m 1 0);
        check_true "not mapped" (not (Mapping.mapped m 1 2));
        Alcotest.(check (list int)) "procs of task" [ 0; 1 ] (Mapping.procs_of_task m 2);
        check_int "on proc 0" 3 (List.length (Mapping.on_proc m 0));
        check_int "on proc 2" 0 (List.length (Mapping.on_proc m 2)));
    case "consumers" (fun () ->
        let m = lanes_mapping () in
        let consumers = Mapping.consumers m (id 0 0) in
        check_int "one consumer" 1 (List.length consumers);
        let cid, vol = List.hd consumers in
        check_int "consumer task" 1 cid.Replica.task;
        check_float "edge volume" 1.0 vol);
    case "message counting" (fun () ->
        check_int "lanes are local" 0 (Mapping.n_messages (lanes_mapping ()));
        check_int "spread crosses everywhere" 4
          (Mapping.n_messages (spread_mapping ())));
    rejects "eps too large for the platform" (fun () ->
        ignore (Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2) ~eps:2));
    rejects "double placement" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:0 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 0 0; proc = 1; sources = [] });
    rejects "colocated replicas of one task" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 0 1; proc = 0; sources = [] });
    rejects "missing source coverage" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:0 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 1 0; proc = 1; sources = [] });
    rejects "source replica not placed" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 1 0; proc = 1; sources = [ (0, [ id 0 1 ]) ] });
    rejects "source of the wrong task" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:0 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 1 0; proc = 1; sources = [ (0, [ id 1 0 ]) ] });
    rejects "empty source list" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:0 in
        Mapping.assign m { Replica.id = id 0 0; proc = 0; sources = [] };
        Mapping.assign m { Replica.id = id 1 0; proc = 1; sources = [ (0, []) ] });
  ]

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let timeline_of ivs =
  let t = Timeline.create () in
  List.iter (fun (start, duration) -> Timeline.insert t ~start ~duration) ivs;
  t

let tentative t probe ~start ~duration =
  Timeline.tentative t probe { Timeline.ready = start; duration; start }

let timeline_tests =
  [
    case "earliest fit on empty" (fun () ->
        check_float "at ready" 3.0
          (Timeline.earliest_fit (Timeline.create ()) ~ready:3.0 ~duration:2.0));
    case "fit into a gap" (fun () ->
        let t = timeline_of [ (0.0, 2.0); (5.0, 2.0) ] in
        check_float "gap" 2.0 (Timeline.earliest_fit t ~ready:0.0 ~duration:3.0);
        check_float "too big for gap" 7.0
          (Timeline.earliest_fit t ~ready:0.0 ~duration:4.0));
    case "fit respects ready time" (fun () ->
        let t = timeline_of [ (0.0, 2.0) ] in
        check_float "after busy and ready" 4.0
          (Timeline.earliest_fit t ~ready:4.0 ~duration:1.0));
    case "insert keeps intervals sorted" (fun () ->
        let t = timeline_of [ (5.0, 1.0); (1.0, 1.0); (3.0, 1.0) ] in
        Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
          "sorted"
          [ (1.0, 2.0); (3.0, 4.0); (5.0, 6.0) ]
          (Timeline.intervals t));
    case "overlap is rejected" (fun () ->
        let t = timeline_of [ (0.0, 2.0) ] in
        Alcotest.check_raises "overlap" (Invalid_argument "") (fun () ->
            try Timeline.insert t ~start:1.0 ~duration:1.0
            with Invalid_argument _ -> raise (Invalid_argument "")));
    (* A sub-slack interval nested in the first slack of [1, 3) must not
       hide [1, 3) from a query that steps back past it. *)
    case "a nested sub-slack interval hides nothing" (fun () ->
        let t = timeline_of [ (1.0, 2.0); (1.0 +. 1e-13, 4e-13) ] in
        check_float "fit after the long interval" 3.0
          (Timeline.earliest_fit t ~ready:2.0 ~duration:0.5);
        check_float "busy until the long interval ends" 3.0
          (Timeline.busy_until t);
        Alcotest.check_raises "insert inside it" (Invalid_argument "") (fun () ->
            try Timeline.insert t ~start:2.0 ~duration:0.5
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "zero duration is a no-op" (fun () ->
        let t = timeline_of [ (1.0, 0.0) ] in
        check_int "still empty" 0 (List.length (Timeline.intervals t)));
    (* max_float +. 0.5 rounds back to max_float: the interval is empty. *)
    case "a duration lost to rounding is a no-op" (fun () ->
        let t = timeline_of [ (Float.max_float, 0.5); (Float.max_float, 0.5) ] in
        check_int "still empty" 0 (List.length (Timeline.intervals t)));
    case "busy accounting" (fun () ->
        let t = timeline_of [ (1.0, 2.0); (4.0, 1.5) ] in
        check_float "busy until" 5.5 (Timeline.busy_until t);
        check_float "total busy" 3.5
          (List.fold_left (fun acc (s, f) -> acc +. (f -. s)) 0.0
             (Timeline.intervals t)));
    case "a probe leaves the timeline untouched" (fun () ->
        let t = timeline_of [ (0.0, 1.0) ] and probe = Timeline.probe () in
        tentative t probe ~start:2.0 ~duration:1.0;
        check_int "base untouched" 1 (List.length (Timeline.intervals t));
        check_float "probe seen" 3.0
          (Timeline.earliest_fit ~probe t ~ready:1.5 ~duration:1.0);
        check_float "probe not committed" 1.5
          (Timeline.earliest_fit t ~ready:1.5 ~duration:1.0);
        Alcotest.check_raises "probe overlap" (Invalid_argument "") (fun () ->
            try tentative t probe ~start:2.5 ~duration:1.0
            with Invalid_argument _ -> raise (Invalid_argument ""));
        Timeline.clear probe;
        check_float "cleared probe" 1.5
          (Timeline.earliest_fit ~probe t ~ready:1.5 ~duration:1.0));
    (* The probe path runs billions of times at scale: a fit must cost
       the same few words (at most the option around its probe) whether
       it passes one interval or a hundred. *)
    case "a long fit allocates no more than a short one" (fun () ->
        let t = timeline_of (List.init 100 (fun i -> (float_of_int (2 * i), 1.5))) in
        let probe = Timeline.probe () in
        tentative t probe ~start:200.0 ~duration:1.0;
        let q = { Timeline.ready = 0.0; duration = 1.0; start = 0.0 } in
        let words ready =
          q.ready <- ready;
          let before = Gc.minor_words () in
          Timeline.fit ~probe t q;
          let after = Gc.minor_words () in
          (q.start, after -. before)
        in
        ignore (words 0.0);
        let short_start, short = words 199.6 and long_start, long = words 0.0 in
        check_float "short fit passes the last interval" 201.0 short_start;
        check_float "long fit passes them all" 201.0 long_start;
        Fixtures.check_bool "no more words for 100 intervals" true (long <= short));
  ]

(* ------------------------------------------------------------------ *)
(* Loads, stages, metrics                                              *)
(* ------------------------------------------------------------------ *)

let loads_tests =
  [
    case "lane mapping loads" (fun () ->
        let loads = Loads.of_mapping (lanes_mapping ()) in
        check_float "sigma P0" 3.0 loads.Loads.sigma.(0);
        check_float "sigma P2" 0.0 loads.Loads.sigma.(2);
        check_float "no comm" 0.0 loads.Loads.c_in.(0);
        check_float "cycle time" 3.0 (Loads.max_cycle_time loads));
    case "spread mapping loads include comms" (fun () ->
        let loads = Loads.of_mapping (spread_mapping ()) in
        (* t0 on P0 (speed 2): 15/2 work; sends two 2-unit messages *)
        check_float "sigma P0" 7.5 loads.Loads.sigma.(0);
        check_float "c_out P0"
          (Platform.comm_time Fixtures.hetero4 0 1 2.0
          +. Platform.comm_time Fixtures.hetero4 0 2 2.0)
          loads.Loads.c_out.(0);
        check_float "c_in P3"
          (Platform.comm_time Fixtures.hetero4 1 3 2.0
          +. Platform.comm_time Fixtures.hetero4 2 3 2.0)
          loads.Loads.c_in.(3));
    case "utilization" (fun () ->
        let loads = Loads.of_mapping (lanes_mapping ()) in
        check_float "UP" 0.3 (Loads.utilization loads ~throughput:0.1 0));
    case "stages of the lane mapping collapse to one" (fun () ->
        check_int "S" 1 (Metrics.stage_depth (lanes_mapping ())));
    case "stages of the spread mapping" (fun () ->
        check_int "S" 3 (Metrics.stage_depth (spread_mapping ())));
    case "stage of each replica" (fun () ->
        let stages = Stages.compute (spread_mapping ()) in
        check_int "entry" 1 (Stages.of_replica stages (id 0 0));
        check_int "middle" 2 (Stages.of_replica stages (id 1 0));
        check_int "exit" 3 (Stages.of_replica stages (id 3 0)));
    case "latency bound formula" (fun () ->
        let m = spread_mapping () in
        check_float "L = (2S-1)/T" 50.0 (Metrics.latency_bound m ~throughput:0.1));
    case "achieved throughput and period" (fun () ->
        let m = lanes_mapping () in
        check_float "period = max cycle" 3.0 (Metrics.period m);
        check_float "throughput" (1.0 /. 3.0) (Metrics.achieved_throughput m));
    case "meets_throughput" (fun () ->
        let m = lanes_mapping () in
        check_true "meets 1/3" (Metrics.meets_throughput m ~throughput:(1.0 /. 3.0));
        check_true "fails 1/2" (not (Metrics.meets_throughput m ~throughput:0.5)));
  ]

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate_tests =
  [
    case "valid mapping passes everything" (fun () ->
        Fixtures.check_valid (lanes_mapping ()) ~throughput:(1.0 /. 3.0));
    case "incomplete mapping reports missing replicas" (fun () ->
        let m = Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4) ~eps:1 in
        check_int "all six missing" 6 (List.length (Validate.structure m)));
    case "throughput violations are localized" (fun () ->
        let errors =
          Validate.throughput (lanes_mapping ()) ~throughput:1.0
        in
        check_int "two overloaded lanes" 2 (List.length errors);
        List.iter
          (function
            | Validate.Throughput_violated (p, delta) ->
                check_true "overloaded lane" (p = 0 || p = 1);
                check_float "delta" 3.0 delta
            | e -> Alcotest.failf "unexpected %s" (Validate.error_to_string e))
          errors);
    case "survives with no failures" (fun () ->
        check_true "survives" (Validate.survives (lanes_mapping ()) ~failed:[]));
    case "survives one lane failure" (fun () ->
        check_true "P0 down" (Validate.survives (lanes_mapping ()) ~failed:[ 0 ]);
        check_true "P1 down" (Validate.survives (lanes_mapping ()) ~failed:[ 1 ]));
    case "both lanes down lose the output" (fun () ->
        check_true "not survives"
          (not (Validate.survives (lanes_mapping ()) ~failed:[ 0; 1 ])));
    case "fault tolerance is exhaustive" (fun () ->
        Fixtures.check_tolerant (lanes_mapping ());
        check_int "eps=2 check finds the lane pair" 1
          (List.length (Validate.fault_tolerance ~max_failures:2 (lanes_mapping ()))));
    case "eps=0 spread mapping survives nothing but reports fine" (fun () ->
        (* with eps=0 fault_tolerance checks no subsets *)
        Fixtures.check_tolerant (spread_mapping ()));
    case "error printing" (fun () ->
        let s =
          Validate.error_to_string (Validate.Not_fault_tolerant [ 0; 3 ])
        in
        check_true "mentions processors"
          (String.length s > 0
          && String.split_on_char 'P' s |> List.length >= 3));
  ]

(* ------------------------------------------------------------------ *)
(* Subsets                                                             *)
(* ------------------------------------------------------------------ *)

let subsets_tests =
  [
    case "the walk visits each c-subset once, in lexicographic order" (fun () ->
        let seen = ref [] in
        Subsets.iter ~procs:5 ~size:3 (fun dead chosen ->
            let set = Array.to_list chosen in
            check_true "the mask marks exactly the chosen"
              (List.for_all
                 (fun u -> dead.(u) = List.mem u set)
                 (List.init 5 Fun.id));
            seen := set :: !seen);
        let seen = List.rev !seen in
        check_int "choose (5, 3) sets" 10 (List.length seen);
        check_float "as many as the binomial" (Subsets.binom 5 3)
          (float_of_int (List.length seen));
        check_true "increasing sets in lexicographic order"
          (List.for_all (fun s -> List.sort_uniq compare s = s) seen
          && List.sort_uniq compare seen = seen);
        let empty = ref 0 in
        Subsets.iter ~procs:4 ~size:0 (fun _ chosen ->
            check_int "the empty set" 0 (Array.length chosen);
            incr empty);
        check_int "one empty set" 1 !empty;
        Alcotest.check_raises "size above procs"
          (Invalid_argument "Subsets.iter: size outside [0, procs]") (fun () ->
            Subsets.iter ~procs:2 ~size:3 (fun _ _ -> ())));
    case "the binomial saturates instead of wrapping" (fun () ->
        check_float "choose (5, 2)" 10.0 (Subsets.binom 5 2);
        check_float "outside the range" 0.0 (Subsets.binom 4 5);
        (* An int binomial overflows at C(61, 28) and is negative at
           C(62, 27), which let an over-budget enumeration start. *)
        let b = Subsets.binom 62 27 in
        check_true "finite, positive and far above 10^6"
          (Float.is_finite b && b > 1e6);
        check_true "saturates to infinity, never below zero"
          (Subsets.binom 2000 1000 = infinity));
  ]

(* ------------------------------------------------------------------ *)
(* Gantt                                                               *)
(* ------------------------------------------------------------------ *)

let gantt_tests =
  [
    case "summary lists every processor" (fun () ->
        let s = Gantt.summary (lanes_mapping ()) in
        check_int "four lines"
          4
          (String.split_on_char '\n' s |> List.filter (fun l -> l <> "") |> List.length));
    case "render shows bars for timed replicas" (fun () ->
        let m = lanes_mapping () in
        let times (r : Replica.id) =
          Some (float_of_int r.Replica.task, float_of_int r.Replica.task +. 1.0)
        in
        let s = Gantt.render ~width:40 m ~times in
        check_true "has bars" (String.contains s '#'));
    case "render with no times" (fun () ->
        let s = Gantt.render (lanes_mapping ()) ~times:(fun _ -> None) in
        check_true "empty note" (String.length s > 0));
  ]

let () =
  Alcotest.run "stream_sched"
    [
      ("replica", replica_tests);
      ("mapping", mapping_tests);
      ("timeline", timeline_tests);
      ("loads-stages-metrics", loads_tests);
      ("validate", validate_tests);
      ("subsets", subsets_tests);
      ("gantt", gantt_tests);
    ]
