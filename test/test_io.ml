open Test_support

let case = Fixtures.case
let check_int = Fixtures.check_int
let check_float = Fixtures.check_float
let check_true = Fixtures.check_true

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let must = function
  | Ok v -> v
  | Error e -> Alcotest.failf "parse error: %s" (Workflow_io.error_to_string e)

let must_fail ~line = function
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check_int "error line" line e.Workflow_io.line

(* ------------------------------------------------------------------ *)
(* Workflow files                                                      *)
(* ------------------------------------------------------------------ *)

let workflow_text =
  {|# demo pipeline
workflow demo
task src 2.0
task mid 3.5      # inline comment
task out 1.0

edge src mid 1.0
edge mid out 0.5
|}

let workflow_tests =
  [
    case "parse a well-formed workflow" (fun () ->
        let dag = must (Workflow_io.parse_workflow workflow_text) in
        Alcotest.(check string) "name" "demo" (Dag.name dag);
        check_int "tasks" 3 (Dag.size dag);
        check_int "edges" 2 (Dag.n_edges dag);
        check_float "weight with comment" 3.5 (Dag.exec dag 1);
        Alcotest.(check string) "label" "mid" (Dag.label dag 1);
        check_true "edge volumes" (Dag.volume dag 0 1 = 1.0));
    case "round trip through print and parse" (fun () ->
        let original = Classic.fig2_graph in
        let reparsed = must (Workflow_io.parse_workflow (Workflow_io.print_workflow original)) in
        check_int "tasks" (Dag.size original) (Dag.size reparsed);
        check_int "edges" (Dag.n_edges original) (Dag.n_edges reparsed);
        Dag.iter_edges original (fun s d v ->
            check_float "volume preserved" v (Dag.volume reparsed s d));
        Dag.iter_tasks original (fun t ->
            check_float "exec preserved" (Dag.exec original t) (Dag.exec reparsed t)));
    case "file round trip" (fun () ->
        let path = Filename.temp_file "wf" ".txt" in
        Workflow_io.save_workflow path Fixtures.fork3;
        let dag = must (Workflow_io.load_workflow path) in
        Sys.remove path;
        check_int "tasks" (Dag.size Fixtures.fork3) (Dag.size dag));
    case "duplicate task is rejected with its line" (fun () ->
        must_fail ~line:3
          (Workflow_io.parse_workflow "task a 1.0\ntask b 1.0\ntask a 2.0\n"));
    case "edge to an unknown task is rejected" (fun () ->
        must_fail ~line:2
          (Workflow_io.parse_workflow "task a 1.0\nedge a ghost 1.0\n"));
    case "bad weight is rejected" (fun () ->
        must_fail ~line:1 (Workflow_io.parse_workflow "task a -3\n");
        must_fail ~line:1 (Workflow_io.parse_workflow "task a abc\n"));
    case "unknown keyword is rejected" (fun () ->
        must_fail ~line:1 (Workflow_io.parse_workflow "banana split\n"));
    case "cycles are rejected" (fun () ->
        must_fail ~line:0
          (Workflow_io.parse_workflow
             "task a 1\ntask b 1\nedge a b 1\nedge b a 1\n"));
    case "empty file is rejected" (fun () ->
        must_fail ~line:0 (Workflow_io.parse_workflow "# nothing\n"));
    case "missing file reports an I/O error" (fun () ->
        must_fail ~line:0 (Workflow_io.load_workflow "/nonexistent/zzz.wf"));
  ]

(* ------------------------------------------------------------------ *)
(* Platform files                                                      *)
(* ------------------------------------------------------------------ *)

let platform_text =
  {|platform lab
proc fast 2.0
proc slow 1.0
proc other 1.0
default-bandwidth 2.0
link fast slow 8.0
|}

let platform_tests =
  [
    case "parse a well-formed platform" (fun () ->
        let p = must (Workflow_io.parse_platform platform_text) in
        check_int "procs" 3 (Platform.size p);
        check_float "speed" 2.0 (Platform.speed p 0);
        check_float "explicit link" 8.0 (Platform.bandwidth p 0 1);
        check_float "default link" 2.0 (Platform.bandwidth p 0 2);
        check_float "symmetric" 8.0 (Platform.bandwidth p 1 0));
    case "platform round trip" (fun () ->
        let reparsed =
          must (Workflow_io.parse_platform (Workflow_io.print_platform Fixtures.hetero4))
        in
        check_int "procs" 4 (Platform.size reparsed);
        List.iter
          (fun u ->
            check_float "speed" (Platform.speed Fixtures.hetero4 u)
              (Platform.speed reparsed u);
            List.iter
              (fun v ->
                if u <> v then
                  check_float "bandwidth"
                    (Platform.bandwidth Fixtures.hetero4 u v)
                    (Platform.bandwidth reparsed u v))
              (Platform.procs Fixtures.hetero4))
          (Platform.procs Fixtures.hetero4));
    case "self link is rejected" (fun () ->
        must_fail ~line:2
          (Workflow_io.parse_platform "proc a 1.0\nlink a a 2.0\n"));
    case "unknown endpoint is rejected" (fun () ->
        must_fail ~line:2
          (Workflow_io.parse_platform "proc a 1.0\nlink a ghost 2.0\n"));
    case "duplicate processor is rejected" (fun () ->
        must_fail ~line:2
          (Workflow_io.parse_platform "proc a 1.0\nproc a 2.0\n"));
    case "platform with no processors is rejected" (fun () ->
        must_fail ~line:0 (Workflow_io.parse_platform "platform empty\n"));
  ]

(* ------------------------------------------------------------------ *)
(* Trace and SVG export                                                *)
(* ------------------------------------------------------------------ *)

let simple_run () =
  let m =
    Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2) ~eps:0
  in
  let id task = { Replica.task; copy = 0 } in
  Mapping.assign m { Replica.id = id 0; proc = 0; sources = [] };
  Mapping.assign m { Replica.id = id 1; proc = 1; sources = [ (0, [ id 0 ]) ] };
  Mapping.assign m { Replica.id = id 2; proc = 0; sources = [ (1, [ id 1 ]) ] };
  (m, Fixtures.simulate m)

let export_tests =
  [
    case "chrome trace mentions every replica and transfer" (fun () ->
        let mapping, result = simple_run () in
        let json = Trace.to_chrome_json mapping result in
        check_true "valid-ish json" (contains json "\"traceEvents\"");
        check_true "task event" (contains json "t1(0)");
        check_true "transfer event" (contains json "t0(0) -> t1(0)");
        (* two processes declared *)
        check_true "P0 named" (contains json "\"name\":\"P0\"");
        check_true "P1 named" (contains json "\"name\":\"P1\""));
    case "chrome trace escapes quoted labels" (fun () ->
        let b = Dag.Builder.create ~name:"q" 1 in
        Dag.Builder.set_label b 0 {|the "src"|};
        let dag = Dag.Builder.build b in
        let m = Mapping.create ~dag ~platform:(Fixtures.uniform 1) ~eps:0 in
        Mapping.assign m
          { Replica.id = { Replica.task = 0; copy = 0 }; proc = 0; sources = [] };
        let json = Trace.to_chrome_json m (Fixtures.simulate m) in
        check_true "quotes escaped" (contains json {|the \"src\"|}));
    case "svg gantt contains lanes, boxes and titles" (fun () ->
        let mapping, result = simple_run () in
        let svg = Svg_gantt.render mapping result in
        check_true "svg header" (contains svg "<svg");
        check_true "processor label" (contains svg ">P0<");
        check_true "execution box" (contains svg "<rect");
        check_true "tooltip" (contains svg "<title>t0(0)"));
    case "svg gantt file export" (fun () ->
        let mapping, result = simple_run () in
        let path = Filename.temp_file "gantt" ".svg" in
        Svg_gantt.save path mapping result;
        let ic = open_in_bin path in
        let size = in_channel_length ic in
        close_in ic;
        Sys.remove path;
        check_true "non-empty" (size > 200));
    case "trace of a multi-item run has one event set per item" (fun () ->
        let mapping, _ = simple_run () in
        let result =
          Fixtures.simulate
            ~config:(Engine.Run.closed ~n_items:2 ~period:5.0 ())
            mapping
        in
        let json = Trace.to_chrome_json mapping result in
        check_true "item 0" (contains json "#0");
        check_true "item 1" (contains json "#1"));
  ]

(* ------------------------------------------------------------------ *)
(* Mapping files                                                       *)
(* ------------------------------------------------------------------ *)

let must_mapping = function
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping parse error: %s" (Mapping_io.error_to_string e)

let mapping_fail ~line = function
  | Ok _ -> Alcotest.fail "expected a mapping parse error"
  | Error e -> check_int "error line" line e.Mapping_io.line

let scheduled_fig2 () =
  let dag = Classic.fig2_graph and platform = Classic.fig2_platform ~m:10 in
  let prob = Types.problem ~dag ~platform ~eps:1 ~throughput:0.05 in
  (dag, platform, Fixtures.must_schedule `Rltf prob)

let mapping_io_tests =
  [
    case "round trip preserves the whole schedule" (fun () ->
        let dag, platform, original = scheduled_fig2 () in
        let reparsed =
          must_mapping (Mapping_io.parse ~dag ~platform (Mapping_io.print original))
        in
        check_int "eps" (Mapping.eps original) (Mapping.eps reparsed);
        Mapping.iter original (fun r ->
            let r' =
              Mapping.replica_exn reparsed r.Replica.id.Replica.task
                r.Replica.id.Replica.copy
            in
            check_int "same processor" r.Replica.proc r'.Replica.proc;
            List.iter2
              (fun (p, ids) (p', ids') ->
                check_int "same pred" p p';
                check_int "same source count" (List.length ids) (List.length ids'))
              r.Replica.sources r'.Replica.sources);
        (* metrics agree *)
        check_int "stages" (Metrics.stage_depth original) (Metrics.stage_depth reparsed);
        check_int "messages" (Mapping.n_messages original) (Mapping.n_messages reparsed));
    case "file round trip" (fun () ->
        let dag, platform, original = scheduled_fig2 () in
        let path = Filename.temp_file "mapping" ".txt" in
        Mapping_io.save path original;
        let reparsed = must_mapping (Mapping_io.load ~dag ~platform path) in
        Sys.remove path;
        check_float "same latency bound"
          (Metrics.latency_bound original ~throughput:0.05)
          (Metrics.latency_bound reparsed ~throughput:0.05));
    case "missing header is rejected" (fun () ->
        let dag = Fixtures.chain3 and platform = Fixtures.uniform 4 in
        mapping_fail ~line:1 (Mapping_io.parse ~dag ~platform "replica 0 0 on 0\n"));
    case "incomplete mappings are rejected" (fun () ->
        let dag = Fixtures.chain3 and platform = Fixtures.uniform 4 in
        mapping_fail ~line:0
          (Mapping_io.parse ~dag ~platform "mapping eps 0\nreplica 0 0 on 0\n"));
    case "bad source groups are rejected with their line" (fun () ->
        let dag = Fixtures.chain3 and platform = Fixtures.uniform 4 in
        mapping_fail ~line:3
          (Mapping_io.parse ~dag ~platform
             "mapping eps 0\nreplica 0 0 on 0\nreplica 1 0 on 1 from nonsense\n"));
    case "structural violations are caught on replay" (fun () ->
        let dag = Fixtures.chain3 and platform = Fixtures.uniform 4 in
        (* two replicas of one task on the same processor *)
        mapping_fail ~line:3
          (Mapping_io.parse ~dag ~platform
             "mapping eps 1\nreplica 0 0 on 0\nreplica 0 1 on 0\n"));
  ]

let () =
  Alcotest.run "workflow_io-and-exports"
    [
      ("workflow-files", workflow_tests);
      ("platform-files", platform_tests);
      ("exports", export_tests);
      ("mapping-files", mapping_io_tests);
    ]
