open Test_support

let case = Fixtures.case
let check_int = Fixtures.check_int
let check_float = Fixtures.check_float
let check_true = Fixtures.check_true

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    case "equal seeds give equal streams" (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 100 do
          check_true "same" (Rng.bits64 a = Rng.bits64 b)
        done);
    case "different seeds differ" (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
        check_true "differ" (Rng.bits64 a <> Rng.bits64 b));
    case "int stays in range" (fun () ->
        let rng = Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let v = Rng.int rng 7 in
          check_true "range" (v >= 0 && v < 7)
        done);
    case "int rejects non-positive bounds" (fun () ->
        Alcotest.check_raises "bound" (Invalid_argument "") (fun () ->
            try ignore (Rng.int (Rng.create ~seed:1) 0)
            with Invalid_argument _ -> raise (Invalid_argument "")));
    case "uniform stays in range" (fun () ->
        let rng = Rng.create ~seed:2 in
        for _ = 1 to 1000 do
          let v = Rng.uniform rng ~lo:0.5 ~hi:1.0 in
          check_true "range" (v >= 0.5 && v < 1.0)
        done);
    case "uniform_int is inclusive" (fun () ->
        let rng = Rng.create ~seed:3 in
        let seen = Array.make 3 false in
        for _ = 1 to 200 do
          seen.(Rng.uniform_int rng ~lo:0 ~hi:2) <- true
        done;
        check_true "all values hit" (Array.for_all Fun.id seen));
    case "int is roughly uniform" (fun () ->
        let rng = Rng.create ~seed:4 in
        let counts = Array.make 4 0 in
        for _ = 1 to 4000 do
          let v = Rng.int rng 4 in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iter
          (fun c -> check_true "within 20% of fair" (c > 800 && c < 1200))
          counts);
    case "split decorrelates" (fun () ->
        let a = Rng.create ~seed:5 in
        let b = Rng.split a in
        check_true "streams differ" (Rng.bits64 a <> Rng.bits64 b));
    case "copy replays the next draws and leaves the original unadvanced"
      (fun () ->
        let a = Rng.create ~seed:5 in
        ignore (Rng.bits64 a);
        let b = Rng.copy a in
        let from_copy = List.init 4 (fun _ -> Rng.bits64 b) in
        let from_original = List.init 4 (fun _ -> Rng.bits64 a) in
        check_true "same draws" (from_copy = from_original));
    case "shuffle permutes" (fun () ->
        let rng = Rng.create ~seed:6 in
        let a = Array.init 20 Fun.id in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted);
    case "choose picks members" (fun () ->
        let rng = Rng.create ~seed:7 in
        for _ = 1 to 50 do
          check_true "member" (List.mem (Rng.choose rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
        done);
    case "bool respects extreme probabilities" (fun () ->
        let rng = Rng.create ~seed:8 in
        for _ = 1 to 100 do
          check_true "p=1" (Rng.bool rng 1.0);
          check_true "p=0" (not (Rng.bool rng 0.0))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let connected_to_entry g =
  (* every task is reachable from some entry *)
  let reached = Array.make (Dag.size g) false in
  List.iter
    (fun entry ->
      reached.(entry) <- true;
      Array.iteri (fun t r -> if r then reached.(t) <- true) (Topo.reachable g entry))
    (Dag.entries g);
  Array.for_all Fun.id reached

let generator_tests =
  [
    case "layered graphs have the requested size" (fun () ->
        let rng = Rng.create ~seed:1 in
        for _ = 1 to 10 do
          let g = Random_dag.layered ~rng ~tasks:40 () in
          check_int "tasks" 40 (Dag.size g);
          check_true "every non-entry task has a predecessor"
            (connected_to_entry g)
        done);
    case "layered graphs are acyclic by construction" (fun () ->
        let rng = Rng.create ~seed:2 in
        let g = Random_dag.layered ~rng ~tasks:60 () in
        check_int "topological order covers all" 60
          (Array.length (Topo.order g)));
    case "layered density increases edges" (fun () ->
        let edges density =
          let rng = Rng.create ~seed:3 in
          Dag.n_edges (Random_dag.layered ~rng ~tasks:80 ~edge_density:density ())
        in
        check_true "denser has more" (edges 0.5 > edges 0.02));
    case "layer count is honoured" (fun () ->
        let rng = Rng.create ~seed:4 in
        let g = Random_dag.layered ~rng ~tasks:30 ~layers:5 () in
        check_true "depth below layer count"
          (Array.fold_left max 0 (Topo.depth g) < 5));
    case "fan_in_out respects the degree bound" (fun () ->
        let rng = Rng.create ~seed:5 in
        let g = Random_dag.fan_in_out ~rng ~tasks:50 ~max_degree:3 () in
        Dag.iter_tasks g (fun t -> check_true "bounded" (Dag.in_degree g t <= 3)));
    case "series_parallel generates SP graphs of the right size" (fun () ->
        let rng = Rng.create ~seed:6 in
        for _ = 1 to 10 do
          let g = Random_dag.series_parallel ~rng ~tasks:25 () in
          check_int "tasks" 25 (Dag.size g);
          check_true "recognized" (Sp.is_series_parallel g)
        done);
    case "series_parallel has unique source and sink" (fun () ->
        let rng = Rng.create ~seed:7 in
        let g = Random_dag.series_parallel ~rng ~tasks:30 () in
        check_int "source" 1 (List.length (Dag.entries g));
        check_int "sink" 1 (List.length (Dag.exits g)));
    case "weights fall in the requested ranges" (fun () ->
        let rng = Rng.create ~seed:8 in
        let weights =
          { Random_dag.exec_range = (10.0, 20.0); volume_range = (1.0, 2.0) }
        in
        let g = Random_dag.layered ~weights ~rng ~tasks:40 () in
        Dag.iter_tasks g (fun t ->
            let w = Dag.exec g t in
            check_true "exec range" (w >= 10.0 && w < 20.0));
        Dag.iter_edges g (fun _ _ v ->
            check_true "volume range" (v >= 1.0 && v < 2.0)));
  ]

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

let calibration_tests =
  [
    case "with_granularity hits the target exactly" (fun () ->
        let rng = Rng.create ~seed:9 in
        let g = Random_dag.layered ~rng ~tasks:50 () in
        let plat = Fixtures.hetero4 in
        List.iter
          (fun target ->
            let g' = Calibrate.with_granularity g plat ~target in
            check_float "granularity"
              target
              (Metrics.granularity g' plat))
          [ 0.2; 1.0; 2.0 ]);
    case "normalize_time sets the mean exec time to one" (fun () ->
        let rng = Rng.create ~seed:10 in
        let g = Random_dag.layered ~rng ~tasks:50 () in
        let plat = Fixtures.hetero4 in
        let g' = Calibrate.normalize_time g plat in
        let mean_time =
          Dag.total_exec g' /. float_of_int (Dag.size g')
          *. Platform.mean_inverse_speed plat
        in
        check_float "normalized" 1.0 mean_time);
    case "normalization preserves the granularity" (fun () ->
        let rng = Rng.create ~seed:11 in
        let g = Random_dag.layered ~rng ~tasks:50 () in
        let plat = Fixtures.hetero4 in
        let g1 = Calibrate.with_granularity g plat ~target:0.8 in
        let g2 = Calibrate.normalize_time g1 plat in
        check_float "granularity kept" 0.8 (Metrics.granularity g2 plat));
    case "calibrated composes both" (fun () ->
        let rng = Rng.create ~seed:12 in
        let g = Random_dag.layered ~rng ~tasks:50 () in
        let plat = Fixtures.hetero4 in
        let g' = Calibrate.calibrated g plat ~granularity:1.4 in
        check_float "granularity" 1.4 (Metrics.granularity g' plat));
    case "with_granularity rejects edgeless graphs" (fun () ->
        Alcotest.check_raises "no comm" (Invalid_argument "") (fun () ->
            try
              ignore
                (Calibrate.with_granularity Fixtures.singleton Fixtures.hetero4
                   ~target:1.0)
            with Invalid_argument _ -> raise (Invalid_argument "")));
  ]

(* ------------------------------------------------------------------ *)
(* Paper workload                                                      *)
(* ------------------------------------------------------------------ *)

let paper_tests =
  [
    case "granularity sweep matches the paper" (fun () ->
        check_int "ten points" 10 (List.length Paper_workload.granularities);
        check_float "first" 0.2 (List.hd Paper_workload.granularities);
        check_float "last" 2.0
          (List.nth Paper_workload.granularities 9));
    case "throughput rule" (fun () ->
        check_float "eps=0" 0.1 (Paper_workload.throughput ~eps:0);
        check_float "eps=1" 0.05 (Paper_workload.throughput ~eps:1);
        check_float "eps=3" 0.025 (Paper_workload.throughput ~eps:3));
    case "platform has twenty processors in the given ranges" (fun () ->
        let rng = Rng.create ~seed:13 in
        let p = (Spec.generate Spec.default ~rng ()).Paper_workload.plat in
        check_int "m" 20 (Platform.size p);
        List.iter
          (fun u ->
            let s = Platform.speed p u in
            check_true "speed range" (s >= 0.5 && s < 1.0))
          (Platform.procs p);
        let d = Platform.unit_delay p 0 1 in
        check_true "delay range" (d >= 0.5 && d <= 1.0));
    case "instance sizes and calibration" (fun () ->
        let rng = Rng.create ~seed:14 in
        for _ = 1 to 5 do
          let inst = Spec.generate Spec.default ~rng ~granularity:0.6 () in
          let v = Dag.size inst.Paper_workload.dag in
          check_true "task range" (v >= 50 && v <= 150);
          check_float "granularity" 0.6
            (Metrics.granularity inst.Paper_workload.dag inst.Paper_workload.plat);
          check_float "time normalized" 1.0
            (Dag.total_exec inst.Paper_workload.dag
            /. float_of_int v
            *. Platform.mean_inverse_speed inst.Paper_workload.plat)
        done);
    case "custom specs are honoured" (fun () ->
        let rng = Rng.create ~seed:15 in
        let spec =
          { Paper_workload.default_spec with Paper_workload.m = 5; tasks_range = (10, 10) }
        in
        let inst = Spec.generate (Spec.paper spec) ~rng ~granularity:1.0 () in
        check_int "five processors" 5 (Platform.size inst.Paper_workload.plat);
        check_int "ten tasks" 10 (Dag.size inst.Paper_workload.dag));
  ]

(* ------------------------------------------------------------------ *)
(* Workload spec registry                                              *)
(* ------------------------------------------------------------------ *)

let instance_fingerprint (inst : Paper_workload.instance) =
  let b = Buffer.create 4096 in
  let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
  Dag.iter_tasks dag (fun t -> Buffer.add_string b (Printf.sprintf "t%d=%.17g;" t (Dag.exec dag t)));
  Dag.iter_edges dag (fun s d v ->
      Buffer.add_string b (Printf.sprintf "e%d-%d=%.17g;" s d v));
  List.iter
    (fun u ->
      Buffer.add_string b (Printf.sprintf "p%d=%.17g;" u (Platform.speed plat u)))
    (Platform.procs plat);
  Digest.to_hex (Digest.string (Buffer.contents b))

let spec_tests =
  [
    case "every registry entry round-trips through its name" (fun () ->
        check_true "registry is non-empty" (Spec.all <> []);
        List.iter
          (fun s ->
            match Spec.find (Spec.name s) with
            | Some s' -> check_true (Spec.name s) (s' = s)
            | None -> Alcotest.failf "%s not in the registry" (Spec.name s))
          Spec.all);
    case "registry names are unique" (fun () ->
        let names = List.map Spec.name Spec.all in
        check_int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq compare names)));
    case "of_string resolves plain registry names" (fun () ->
        List.iter
          (fun s ->
            match Spec.of_string (Spec.name s) with
            | Ok s' -> check_true (Spec.name s) (s' = s)
            | Error e -> Alcotest.fail e)
          Spec.all);
    case "of_string applies size overrides" (fun () ->
        match Spec.of_string "huge:v=4000:m=40" with
        | Error e -> Alcotest.fail e
        | Ok s ->
            let rng = Rng.create ~seed:21 in
            let inst = Spec.generate s ~rng () in
            check_int "tasks" 4000 (Dag.size inst.Paper_workload.dag);
            check_int "procs" 40 (Platform.size inst.Paper_workload.plat));
    case "of_string rejects unknown names and bad overrides" (fun () ->
        check_true "unknown name"
          (Result.is_error (Spec.of_string "no-such-workload"));
        check_true "bad override key"
          (Result.is_error (Spec.of_string "huge:zz=3")));
    case "generate is deterministic under the seed" (fun () ->
        List.iter
          (fun name ->
            match Spec.of_string name with
            | Error e -> Alcotest.fail e
            | Ok s ->
                let draw () =
                  let rng = Rng.create ~seed:99 in
                  instance_fingerprint (Spec.generate s ~rng ())
                in
                Alcotest.(check string) name (draw ()) (draw ()))
          [ "paper-layered"; "huge:v=3000:m=30" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Classic graph families                                              *)
(* ------------------------------------------------------------------ *)

let classic_tests =
  [
    case "stream_pipeline shape" (fun () ->
        let g = Classic.stream_pipeline ~stages:3 ~branches:4 ~exec:1.0 ~volume:1.0 in
        check_int "size 3*(4+2)" 18 (Dag.size g);
        check_int "one entry" 1 (List.length (Dag.entries g));
        check_int "one exit" 1 (List.length (Dag.exits g));
        check_int "width is the branch count" 4 (Width.exact g);
        check_true "labels name the filters"
          (Dag.label g 1 = "filter0.1"));
    case "stream_pipeline chains its segments" (fun () ->
        let g = Classic.stream_pipeline ~stages:2 ~branches:2 ~exec:1.0 ~volume:1.0 in
        (* join of segment 0 (index 3) feeds split of segment 1 (index 4) *)
        check_true "joined" (Dag.has_edge g 3 4));
    case "stream_pipeline is schedulable with replication" (fun () ->
        let plat = Fixtures.uniform 6 in
        let dag =
          Calibrate.normalize_time
            (Classic.stream_pipeline ~stages:3 ~branches:2 ~exec:5.0 ~volume:1.0)
            plat
        in
        let prob = Types.problem ~dag ~platform:plat ~eps:1 ~throughput:0.1 in
        let m = Fixtures.must_schedule `Rltf prob in
        Fixtures.check_valid m ~throughput:0.1);
  ]

let () =
  Alcotest.run "stream_workload"
    [
      ("rng", rng_tests);
      ("generators", generator_tests);
      ("calibration", calibration_tests);
      ("paper", paper_tests);
      ("spec", spec_tests);
      ("classic", classic_tests);
    ]
