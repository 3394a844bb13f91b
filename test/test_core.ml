open Test_support

let case = Fixtures.case
let slow_case = Fixtures.slow_case
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true

let rejects name f =
  case name (fun () ->
      Alcotest.check_raises name (Invalid_argument "") (fun () ->
          try f () with Invalid_argument _ -> raise (Invalid_argument "")))

(* ------------------------------------------------------------------ *)
(* Problem statements                                                  *)
(* ------------------------------------------------------------------ *)

let types_tests =
  [
    case "period is the inverse throughput" (fun () ->
        let p =
          Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4)
            ~eps:1 ~throughput:0.05
        in
        Fixtures.check_float "period" 20.0 (Types.period p));
    rejects "negative eps" (fun () ->
        ignore
          (Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4)
             ~eps:(-1) ~throughput:0.1));
    rejects "eps >= m" (fun () ->
        ignore
          (Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2)
             ~eps:2 ~throughput:0.1));
    rejects "non-positive throughput" (fun () ->
        ignore
          (Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2)
             ~eps:0 ~throughput:0.0));
    case "failure rendering" (fun () ->
        let s = Types.failure_to_string (Types.No_feasible_processor (7, 2)) in
        check_true "mentions the replica"
          (String.length s > 0
          &&
          let rec has i =
            i + 5 <= String.length s && (String.sub s i 5 = "t7(2)" || has (i + 1))
          in
          has 0));
  ]

(* ------------------------------------------------------------------ *)
(* LTF and R-LTF on fixed graphs                                       *)
(* ------------------------------------------------------------------ *)

let problem ?(eps = 1) ?(m = 8) ?(throughput = 0.05) dag =
  Types.problem ~dag ~platform:(Classic.fig2_platform ~m) ~eps ~throughput

let classic_tests =
  [
    case "chain schedules into disjoint lanes" (fun () ->
        let prob = problem ~m:4 ~throughput:0.1 Fixtures.chain3 in
        let m = Fixtures.must_schedule `Ltf prob in
        Fixtures.check_valid m ~throughput:0.1;
        check_int "single stage" 1 (Metrics.stage_depth m);
        check_int "no messages" 0 (Mapping.n_messages m));
    case "rltf on the chain also collapses stages" (fun () ->
        let prob = problem ~m:4 ~throughput:0.1 Fixtures.chain3 in
        let m = Fixtures.must_schedule `Rltf prob in
        Fixtures.check_valid m ~throughput:0.1;
        check_int "single stage" 1 (Metrics.stage_depth m));
    case "fig2: LTF with ten processors succeeds and is valid" (fun () ->
        let m = Fixtures.must_schedule `Ltf (problem ~m:10 Classic.fig2_graph) in
        Fixtures.check_valid m ~throughput:0.05);
    case "fig2: R-LTF with ten processors needs fewer stages" (fun () ->
        let ltf = Fixtures.must_schedule `Ltf (problem ~m:10 Classic.fig2_graph) in
        let rltf = Fixtures.must_schedule `Rltf (problem ~m:10 Classic.fig2_graph) in
        Fixtures.check_valid rltf ~throughput:0.05;
        check_true "R-LTF stage count <= LTF's"
          (Metrics.stage_depth rltf <= Metrics.stage_depth ltf));
    case "fig2: strict R-LTF cannot do m=8 (the paper's own schedule is overloaded)"
      (fun () ->
        match Rltf.schedule (problem ~m:8 Classic.fig2_graph) with
        | Error (Types.No_feasible_processor _ | Types.Derived_overload _) -> ()
        | Ok m ->
            (* if it ever succeeds, it must be genuinely valid *)
            Fixtures.check_valid m ~throughput:0.05);
    case "best-effort mode always places fig2" (fun () ->
        let m =
          Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
            (problem ~m:8 Classic.fig2_graph)
        in
        Fixtures.check_tolerant m);
    case "eps=0 gives one replica per task" (fun () ->
        let m = Fixtures.must_schedule `Ltf (problem ~eps:0 ~m:4 Fixtures.fork3) in
        Dag.iter_tasks Fixtures.fork3 (fun t ->
            check_int "one copy" 1 (List.length (Mapping.replicas_of_task m t))));
    case "eps=2 places three replicas on distinct processors" (fun () ->
        let prob = problem ~eps:2 ~m:10 ~throughput:0.02 Fixtures.fork3 in
        let m = Fixtures.must_schedule `Rltf prob in
        Dag.iter_tasks Fixtures.fork3 (fun t ->
            check_int "three distinct processors" 3
              (List.length (Mapping.procs_of_task m t)));
        Fixtures.check_valid m ~throughput:0.02);
    case "single processor with eps=0 works when the load fits" (fun () ->
        let prob =
          Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 1)
            ~eps:0 ~throughput:0.1
        in
        let m = Fixtures.must_schedule `Ltf prob in
        check_int "one stage" 1 (Metrics.stage_depth m));
    case "impossible throughput fails in strict mode" (fun () ->
        let prob =
          Types.problem ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 4)
            ~eps:1 ~throughput:2.0
        in
        (match Ltf.schedule prob with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "LTF accepted an impossible throughput");
        match Rltf.schedule prob with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "R-LTF accepted an impossible throughput");
    case "best-effort never refuses feasible structure" (fun () ->
        let prob =
          Types.problem ~dag:Fixtures.fft8 ~platform:(Fixtures.uniform 6)
            ~eps:1 ~throughput:1.0 (* far too demanding *)
        in
        let m = Fixtures.must_schedule ~mode:Scheduler.Best_effort `Ltf prob in
        (* tolerance still holds even though the throughput cannot *)
        Fixtures.check_tolerant m);
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler internals via run_state                                   *)
(* ------------------------------------------------------------------ *)

let state_tests =
  [
    case "state stages agree with the mapping stages" (fun () ->
        let prob = problem ~m:10 Classic.fig2_graph in
        match Ltf.schedule_state prob with
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f)
        | Ok state ->
            let mapping = State.mapping state in
            let stages = Stages.compute mapping in
            Mapping.iter mapping (fun r ->
                check_int
                  (Printf.sprintf "stage of %s" (Replica.id_to_string r.Replica.id))
                  (Stages.of_replica stages r.Replica.id)
                  (State.stage state r.Replica.id)));
    case "state loads agree with recomputed loads" (fun () ->
        let prob = problem ~m:10 Classic.fig2_graph in
        match Ltf.schedule_state prob with
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f)
        | Ok state ->
            let loads = Loads.of_mapping (State.mapping state) in
            let inc = State.loads state in
            Array.iteri
              (fun u sigma ->
                Fixtures.check_float "sigma" sigma inc.Loads.sigma.(u);
                Fixtures.check_float "c_in" loads.Loads.c_in.(u) inc.Loads.c_in.(u);
                Fixtures.check_float "c_out" loads.Loads.c_out.(u)
                  inc.Loads.c_out.(u))
              loads.Loads.sigma);
    case "finish times respect dependencies" (fun () ->
        let prob = problem ~m:10 Classic.fig2_graph in
        match Ltf.schedule_state prob with
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f)
        | Ok state ->
            let mapping = State.mapping state in
            Mapping.iter mapping (fun r ->
                List.iter
                  (fun (_, ids) ->
                    List.iter
                      (fun src ->
                        check_true "source finishes before consumer"
                          (State.finish state src <= State.finish state r.Replica.id
                          +. 1e-9))
                      ids)
                  r.Replica.sources));
    case "supports of siblings are pairwise disjoint" (fun () ->
        let prob = problem ~eps:2 ~m:10 ~throughput:0.02 Fixtures.gauss5 in
        match Ltf.schedule_state prob with
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f)
        | Ok state ->
            Dag.iter_tasks Fixtures.gauss5 (fun t ->
                for a = 0 to 2 do
                  for b = a + 1 to 2 do
                    check_true "disjoint"
                      (State.Pset.disjoint
                         (State.support state { Replica.task = t; copy = a })
                         (State.support state { Replica.task = t; copy = b }))
                  done
                done));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let fingerprint mapping =
  let parts = ref [] in
  Mapping.iter mapping (fun r ->
      parts :=
        Printf.sprintf "%s@%d" (Replica.id_to_string r.Replica.id) r.Replica.proc
        :: !parts);
  String.concat ";" (List.rev !parts)

let determinism_tests =
  [
    case "LTF is deterministic" (fun () ->
        let prob = problem ~m:10 Classic.fig2_graph in
        let a = Fixtures.must_schedule `Ltf prob in
        let b = Fixtures.must_schedule `Ltf prob in
        Alcotest.(check string) "same mapping" (fingerprint a) (fingerprint b));
    case "R-LTF is deterministic" (fun () ->
        let prob = problem ~m:10 Classic.fig2_graph in
        let a = Fixtures.must_schedule `Rltf prob in
        let b = Fixtures.must_schedule `Rltf prob in
        Alcotest.(check string) "same mapping" (fingerprint a) (fingerprint b));
    case "paper instances are reproducible" (fun () ->
        let fingerprint_of_seed seed =
          let inst = Fixtures.paper_instance ~seed () in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps:1
              ~throughput:(Paper_workload.throughput ~eps:1)
          in
          match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
          | Ok m -> fingerprint m
          | Error _ -> "failed"
        in
        Alcotest.(check string)
          "same seed, same schedule"
          (fingerprint_of_seed 11) (fingerprint_of_seed 11);
        check_true "different seeds differ"
          (fingerprint_of_seed 11 <> fingerprint_of_seed 12));
  ]

(* ------------------------------------------------------------------ *)
(* Source derivation                                                   *)
(* ------------------------------------------------------------------ *)

let derivation_tests =
  [
    case "derive reproduces the lane structure" (fun () ->
        let proc_of _task copy = copy in
        let m =
          Source_derivation.derive ~dag:Fixtures.chain3
            ~platform:(Fixtures.uniform 4) ~eps:1 ~proc_of ()
        in
        check_int "no cross messages" 0 (Mapping.n_messages m);
        Fixtures.check_tolerant m);
    case "derive on spread placements stays tolerant" (fun () ->
        (* replicas of consecutive tasks on alternating processor pairs *)
        let proc_of task copy = (2 * (task mod 2)) + copy in
        let m =
          Source_derivation.derive ~dag:Fixtures.chain5
            ~platform:(Fixtures.uniform 4) ~eps:1 ~proc_of ()
        in
        Fixtures.check_tolerant m);
    case "derive handles eps=0 with co-location" (fun () ->
        let proc_of _ _ = 0 in
        let m =
          Source_derivation.derive ~dag:Fixtures.gauss5
            ~platform:(Fixtures.uniform 2) ~eps:0 ~proc_of ()
        in
        check_int "all local" 0 (Mapping.n_messages m);
        check_int "one stage" 1 (Metrics.stage_depth m));
    case "derive with eps=2 on a fan keeps every group coverable" (fun () ->
        let proc_of task copy = ((task + copy) mod 3) + (3 * copy) in
        let m =
          Source_derivation.derive ~dag:Fixtures.fork3
            ~platform:(Fixtures.uniform 9) ~eps:2 ~proc_of ()
        in
        Fixtures.check_tolerant m);
    case "hints steer the pairing" (fun () ->
        (* two lanes; the hint crosses them on purpose for t1, which the
           derivation honours only if safe — here crossing is unsafe for
           tolerance (it would tie both replicas to P0), so the local
           source must win for copy 0 and the crossing is rejected for the
           sibling too *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let proc_of _ copy = copy in
        let hint task copy _pred =
          if task = 1 then [ { Replica.task = 0; copy = 1 - copy } ] else []
        in
        let m =
          Source_derivation.derive ~hint ~dag ~platform:(Fixtures.uniform 4)
            ~eps:1 ~proc_of ()
        in
        Fixtures.check_tolerant m);
  ]

(* ------------------------------------------------------------------ *)
(* Fault-free reference and symmetric problems                         *)
(* ------------------------------------------------------------------ *)

let extension_tests =
  [
    case "fault-free schedule has single replicas" (fun () ->
        match
          Fault_free.run ~dag:Fixtures.gauss5 ~platform:(Fixtures.uniform 4)
            ~throughput:0.1 ()
        with
        | Error f -> Alcotest.failf "fault-free failed: %s" (Types.failure_to_string f)
        | Ok m ->
            check_int "eps" 0 (Mapping.eps m);
            Fixtures.check_valid m ~throughput:0.1);
    case "fault-free latency exists when schedulable" (fun () ->
        match
          Fault_free.run ~dag:Fixtures.gauss5 ~platform:(Fixtures.uniform 4)
            ~throughput:0.1 ()
        with
        | Error f -> Alcotest.failf "fault-free failed: %s" (Types.failure_to_string f)
        | Ok m ->
            check_true "latency" (Fixtures.fixed_latency m <> None));
    slow_case "max_throughput returns a feasible point" (fun () ->
        let r =
          Symmetric.max_throughput ~iterations:10 ~dag:Fixtures.gauss5
            ~platform:(Fixtures.uniform 6) ~eps:1 ~latency_bound:200.0 ()
        in
        match r.Symmetric.best with
        | None -> Alcotest.fail "expected a feasible throughput"
        | Some (t, m) ->
            check_true "positive" (t > 0.0);
            check_true "latency bound respected"
              (Metrics.latency_bound m ~throughput:t <= 200.0 +. 1e-6);
            Fixtures.check_tolerant m);
    slow_case "max_throughput grows with a looser latency bound" (fun () ->
        let best bound =
          match
            (Symmetric.max_throughput ~iterations:10 ~dag:Fixtures.gauss5
               ~platform:(Fixtures.uniform 6) ~eps:1 ~latency_bound:bound ())
              .Symmetric.best
          with
          | Some (t, _) -> t
          | None -> 0.0
        in
        check_true "monotone" (best 400.0 >= best 80.0 -. 1e-9));
    slow_case "platform cost minimization keeps a feasible subset" (fun () ->
        match
          Platform_cost.minimize ~dag:Fixtures.gauss5
            ~platform:(Fixtures.uniform 8) ~eps:1 ~throughput:0.05 ()
        with
        | None -> Alcotest.fail "expected the full platform to be feasible"
        | Some r ->
            check_true "kept a strict subset or everything"
              (List.length r.Platform_cost.kept <= 8);
            check_true "cheaper or equal"
              (r.Platform_cost.cost <= r.Platform_cost.full_cost +. 1e-9);
            check_true "still enough processors for the replicas"
              (List.length r.Platform_cost.kept >= 2);
            Fixtures.check_valid r.Platform_cost.mapping ~throughput:0.05;
            check_true "oracle calls counted" (r.Platform_cost.evaluations >= 1));
    slow_case "cost minimization is None on impossible instances" (fun () ->
        check_true "infeasible"
          (Platform_cost.minimize ~dag:Fixtures.gauss5
             ~platform:(Fixtures.uniform 4) ~eps:1 ~throughput:100.0 ()
          = None));
    slow_case "a custom cost function steers the eviction" (fun () ->
        (* make processor 0 absurdly expensive: it must be evicted first
           whenever the rest suffices *)
        match
          Platform_cost.minimize
            ~cost_of:(fun p -> if p = 0 then 1000.0 else 1.0)
            ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 6) ~eps:1
            ~throughput:0.1 ()
        with
        | None -> Alcotest.fail "expected feasible"
        | Some r ->
            check_true "P0 evicted" (not (List.mem 0 r.Platform_cost.kept)));
    slow_case "max_failures finds at least eps=1 on an easy instance" (fun () ->
        let r =
          Symmetric.max_failures ~dag:Fixtures.chain3
            ~platform:(Fixtures.uniform 6) ~throughput:0.05 ~latency_bound:100.0
            ()
        in
        match r.Symmetric.best with
        | None -> Alcotest.fail "expected a feasible eps"
        | Some (eps, m) ->
            check_true "eps >= 1" (eps >= 1.0);
            check_int "replica count matches" (int_of_float eps) (Mapping.eps m));
  ]

(* ------------------------------------------------------------------ *)
(* Integration over the paper workload                                 *)
(* ------------------------------------------------------------------ *)

let integration_tests =
  [
    slow_case "strict schedules are fully valid when they exist" (fun () ->
        List.iter
          (fun (seed, g, eps) ->
            let inst = Fixtures.paper_instance ~seed ~granularity:g () in
            let throughput = Paper_workload.throughput ~eps in
            let prob =
              Types.problem ~dag:inst.Paper_workload.dag
                ~platform:inst.Paper_workload.plat ~eps ~throughput
            in
            List.iter
              (fun (name, outcome) ->
                match outcome with
                | Error _ -> ()
                | Ok m ->
                    Fixtures.check_valid
                      ~what:(Printf.sprintf "%s seed=%d g=%.1f eps=%d" name seed g eps)
                      m ~throughput)
              [ ("LTF", Ltf.schedule prob); ("R-LTF", Rltf.schedule prob) ])
          [
            (11, 1.0, 1); (12, 1.4, 1); (13, 2.0, 1);
            (14, 1.0, 3); (15, 2.0, 3); (16, 0.6, 1);
          ]);
    slow_case "best-effort schedules always keep the tolerance guarantee"
      (fun () ->
        List.iter
          (fun (seed, g, eps) ->
            let inst = Fixtures.paper_instance ~seed ~granularity:g () in
            let throughput = Paper_workload.throughput ~eps in
            let prob =
              Types.problem ~dag:inst.Paper_workload.dag
                ~platform:inst.Paper_workload.plat ~eps ~throughput
            in
            List.iter
              (fun (name, outcome) ->
                match outcome with
                | Error f ->
                    Alcotest.failf "%s failed in best-effort mode: %s" name
                      (Types.failure_to_string f)
                | Ok m ->
                    Fixtures.check_tolerant
                      ~what:(Printf.sprintf "%s seed=%d g=%.1f eps=%d" name seed g eps)
                      m)
              [
                ("LTF", Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob);
                ("R-LTF", Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob);
              ])
          [
            (21, 0.2, 1); (22, 0.6, 1); (23, 1.0, 1); (24, 2.0, 1);
            (25, 0.2, 3); (26, 1.0, 3); (27, 2.0, 3); (28, 0.4, 2);
          ]);
    slow_case "R-LTF tends to fewer stages than LTF" (fun () ->
        let wins = ref 0 and total = ref 0 in
        for seed = 31 to 40 do
          let inst = Fixtures.paper_instance ~seed ~granularity:1.6 () in
          let throughput = Paper_workload.throughput ~eps:1 in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps:1 ~throughput
          in
          match
            ( Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob,
              Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob )
          with
          | Ok ltf, Ok rltf ->
              incr total;
              if Metrics.stage_depth rltf <= Metrics.stage_depth ltf then incr wins
          | _ -> ()
        done;
        check_true "at least 8 of 10 instances"
          (!total >= 8 && !wins * 10 >= !total * 8));
  ]

(* ------------------------------------------------------------------ *)
(* Exact small-instance optimum                                         *)
(* ------------------------------------------------------------------ *)

let optimal_tests =
  [
    case "a chain with a loose period fits in one stage" (fun () ->
        match
          Optimal.minimum_stages ~dag:Fixtures.chain3
            ~platform:(Fixtures.uniform 3) ~throughput:0.2
        with
        | None -> Alcotest.fail "expected a solution"
        | Some r ->
            check_int "one stage" 1 r.Optimal.stages;
            check_int "mapping agrees" 1 (Metrics.stage_depth r.Optimal.mapping));
    case "a tight period forces a split and a second stage" (fun () ->
        (* chain of 3 unit tasks, period 1.2: at most one task per
           processor, so the chain must cross processors *)
        match
          Optimal.minimum_stages ~dag:Fixtures.chain3
            ~platform:(Fixtures.uniform 3)
            ~throughput:(1.0 /. 1.2)
        with
        | None -> Alcotest.fail "expected a solution"
        | Some r -> check_int "three stages" 3 r.Optimal.stages);
    case "impossible throughput yields None" (fun () ->
        check_true "none"
          (Optimal.minimum_stages ~dag:Fixtures.chain3
             ~platform:(Fixtures.uniform 3) ~throughput:10.0
          = None));
    case "the optimum never exceeds a heuristic" (fun () ->
        let rng = Rng.create ~seed:77 in
        for _ = 1 to 5 do
          let plat = Fixtures.uniform 4 in
          let dag =
            Calibrate.calibrated (Random_dag.layered ~rng ~tasks:8 ()) plat
              ~granularity:1.0
          in
          let throughput = 0.25 in
          match Optimal.minimum_stages ~dag ~platform:plat ~throughput with
          | None -> ()
          | Some exact -> (
              Fixtures.check_valid ~what:"optimal mapping" exact.Optimal.mapping
                ~throughput;
              match
                Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort)
                  (Types.problem ~dag ~platform:plat ~eps:0 ~throughput)
              with
              | Ok heuristic ->
                  check_true "optimal <= heuristic"
                    (exact.Optimal.stages <= Metrics.stage_depth heuristic)
              | Error _ -> ())
        done);
    case "homogeneous symmetry breaking is sound" (fun () ->
        (* same instance, once on a homogeneous platform (symmetry cuts)
           and once with an epsilon-heterogeneous one (full search): both
           must find the same optimum *)
        let rng = Rng.create ~seed:78 in
        let base = Random_dag.layered ~rng ~tasks:7 () in
        let homo = Fixtures.uniform 3 in
        let nearly =
          Platform.create
            ~speeds:[| 1.0; 1.0 +. 1e-12; 1.0 |]
            ~bandwidth:(Array.make_matrix 3 3 1.0)
            ()
        in
        let dag = Calibrate.calibrated base homo ~granularity:1.0 in
        let get plat =
          match Optimal.minimum_stages ~dag ~platform:plat ~throughput:0.3 with
          | Some r -> r.Optimal.stages
          | None -> -1
        in
        check_int "same optimum" (get homo) (get nearly));
    rejects "too many tasks" (fun () ->
        let dag = Classic.chain ~n:30 ~exec:1.0 ~volume:1.0 in
        ignore
          (Optimal.minimum_stages ~dag ~platform:(Fixtures.uniform 2)
             ~throughput:0.01));
  ]

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)
(* ------------------------------------------------------------------ *)

(* chain2 with both tasks replicated on {P0, P1} of a uniform platform of
   [m] processors: killing P0 forces every re-placement onto the same
   survivors, which lets a throughput bound make the chain degrade on
   cue. *)
let two_on_shared_lanes ?(m = 3) () =
  let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
  let mapping = Mapping.create ~dag ~platform:(Fixtures.uniform m) ~eps:1 in
  let id task copy = { Replica.task; copy } in
  let place task copy proc sources =
    Mapping.assign mapping { Replica.id = id task copy; proc; sources }
  in
  place 0 0 0 [];
  place 0 1 1 [];
  place 1 0 0 [ (0, [ id 0 0 ]) ];
  place 1 1 1 [ (0, [ id 0 1 ]) ];
  mapping

let recovery_tests =
  let scheduled ?(eps = 1) ?(m = 8) ?(throughput = 0.05) dag =
    Fixtures.must_schedule `Rltf
      (Types.problem ~dag ~platform:(Classic.fig2_platform ~m) ~eps ~throughput)
  in
  [
    case "recovery after one crash restores full tolerance" (fun () ->
        let m = scheduled Fixtures.gauss5 in
        (* pick a processor that actually hosts replicas *)
        let victim =
          List.find
            (fun p -> Mapping.on_proc m p <> [])
            (Platform.procs (Mapping.platform m))
        in
        match Recovery.restore ~throughput:0.05 m ~failed:[ victim ] with
        | Error e -> Alcotest.failf "recovery failed: %s" (Recovery.error_to_string e)
        | Ok restored ->
            check_int "victim hosts nothing" 0
              (List.length (Mapping.on_proc restored victim));
            Fixtures.check_tolerant ~what:"restored mapping" restored);
    case "survivors keep their placement" (fun () ->
        let m = scheduled Fixtures.gauss5 in
        let victim =
          List.find
            (fun p -> Mapping.on_proc m p <> [])
            (Platform.procs (Mapping.platform m))
        in
        match Recovery.restore m ~failed:[ victim ] with
        | Error e -> Alcotest.failf "recovery failed: %s" (Recovery.error_to_string e)
        | Ok restored ->
            Mapping.iter m (fun (r : Replica.t) ->
                if r.Replica.proc <> victim then
                  check_int
                    (Printf.sprintf "%s stayed" (Replica.id_to_string r.Replica.id))
                    r.Replica.proc
                    (Mapping.replica_exn restored r.Replica.id.Replica.task
                       r.Replica.id.Replica.copy)
                      .Replica.proc));
    case "recovered schedules survive fresh failures" (fun () ->
        let m = scheduled Fixtures.chain5 in
        match Recovery.restore m ~failed:[ 0 ] with
        | Error e -> Alcotest.failf "recovery failed: %s" (Recovery.error_to_string e)
        | Ok restored ->
            (* the restored mapping tolerates the failure of any single
               surviving processor *)
            List.iter
              (fun p ->
                if p <> 0 then
                  check_true
                    (Printf.sprintf "survives P%d" p)
                    (Validate.survives restored ~failed:[ 0; p ]))
              (Platform.procs (Mapping.platform m)));
    case "recovery refuses when too few processors survive" (fun () ->
        let m = scheduled ~eps:2 ~m:4 ~throughput:0.02 Fixtures.chain3 in
        match Recovery.restore m ~failed:[ 0; 1 ] with
        | Error Recovery.Not_enough_processors -> ()
        | Error e -> Alcotest.failf "unexpected error: %s" (Recovery.error_to_string e)
        | Ok _ -> Alcotest.fail "expected Not_enough_processors");
    case "recovery with no failures is a re-derivation" (fun () ->
        let m = scheduled Fixtures.fork3 in
        match Recovery.restore m ~failed:[] with
        | Error e -> Alcotest.failf "recovery failed: %s" (Recovery.error_to_string e)
        | Ok restored -> Fixtures.check_tolerant restored);
    case "recovery refuses when no survivor has room" (fun () ->
        (* Two chained tasks, both replicated on {P0, P1}; killing P0
           leaves P2 the only sibling-free survivor.  Under a 0.6
           throughput bound (load cap 1/0.6) P2 takes t0's replica (load
           1) but has no room for t1's, so restoration must report
           No_room rather than overload it. *)
        let m = two_on_shared_lanes () in
        (match Recovery.restore ~throughput:0.6 m ~failed:[ 0 ] with
        | Error (Recovery.No_room (task, copy)) ->
            check_int "second task is stuck" 1 task;
            check_int "its lane-0 copy" 0 copy
        | Error e -> Alcotest.failf "unexpected error: %s" (Recovery.error_to_string e)
        | Ok _ -> Alcotest.fail "expected No_room");
        (* without the bound the same restoration goes through *)
        match Recovery.restore m ~failed:[ 0 ] with
        | Error e -> Alcotest.failf "unbounded restore failed: %s" (Recovery.error_to_string e)
        | Ok restored -> Fixtures.check_tolerant ~what:"unbounded restore" restored);
    case "restored mappings pass Validate with disjoint survivor kills (QCheck)"
      (fun () ->
        let prop seed =
          let inst = Fixtures.paper_instance ~seed () in
          let throughput = Paper_workload.throughput ~eps:1 in
          let m =
            Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
              (Types.problem ~dag:inst.Paper_workload.dag
                 ~platform:inst.Paper_workload.plat ~eps:1 ~throughput)
          in
          let n = Platform.size (Mapping.platform m) in
          let victim = seed mod n in
          match Recovery.restore m ~failed:[ victim ] with
          | Error e ->
              Alcotest.failf "restore failed: %s" (Recovery.error_to_string e)
          | Ok restored ->
              Fixtures.check_tolerant ~what:"restored" restored;
              (* the victim is already dead: the restored mapping must
                 survive {victim, p} for every surviving processor p *)
              List.for_all
                (fun p ->
                  p = victim || Validate.survives restored ~failed:[ victim; p ])
                (Platform.procs (Mapping.platform restored))
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:15 ~name:"restored-validates"
             QCheck.(int_range 0 10_000)
             prop));
  ]

(* ------------------------------------------------------------------ *)
(* Recovery policy: the degradation chain                               *)
(* ------------------------------------------------------------------ *)

let policy_tests =
  let level_of = function
    | Recovery_policy.Restored o -> Recovery_policy.level_to_string o.Recovery_policy.level
    | Recovery_policy.Outage _ -> "outage"
  in
  [
    case "a feasible restore keeps full strength" (fun () ->
        let m = two_on_shared_lanes ~m:4 () in
        match Recovery_policy.react ~throughput:0.4 ~failed:[ 0 ] m with
        | Recovery_policy.Restored o ->
            check_int "one attempt" 1 o.Recovery_policy.attempts;
            check_int "tolerance back to eps" 1 o.Recovery_policy.tolerance;
            check_true "full strength"
              (o.Recovery_policy.level = Recovery_policy.Full_strength);
            check_true "identity processor table"
              (o.Recovery_policy.procs = [| 0; 1; 2; 3 |]);
            Fixtures.check_tolerant ~what:"full-strength" o.Recovery_policy.mapping
        | v -> Alcotest.failf "expected Full_strength, got %s" (level_of v));
    case "a throughput-bound failure relaxes to the achieved period" (fun () ->
        (* same instance as the No_room test: the bounded restore fails,
           the unbounded one succeeds on the next rung *)
        let m = two_on_shared_lanes () in
        match Recovery_policy.react ~throughput:0.6 ~failed:[ 0 ] m with
        | Recovery_policy.Restored o ->
            check_int "two attempts" 2 o.Recovery_policy.attempts;
            check_true "relaxed"
              (o.Recovery_policy.level = Recovery_policy.Relaxed_throughput);
            check_int "tolerance kept" 1 o.Recovery_policy.tolerance;
            Fixtures.check_tolerant ~what:"relaxed" o.Recovery_policy.mapping
        | v -> Alcotest.failf "expected Relaxed_throughput, got %s" (level_of v));
    case "too few survivors reduce the replication degree" (fun () ->
        (* eps = 2 needs 3 processors; kill 2 of 4 and only eps' = 1 fits
           the surviving pair *)
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m =
          Fixtures.must_schedule `Rltf
            (Types.problem ~dag ~platform:(Fixtures.uniform 4) ~eps:2
               ~throughput:0.01)
        in
        match Recovery_policy.react ~throughput:0.01 ~failed:[ 0; 1 ] m with
        | Recovery_policy.Restored o ->
            check_true "reduced degree"
              (o.Recovery_policy.level = Recovery_policy.Reduced_eps 1);
            check_int "tolerance is eps'" 1 o.Recovery_policy.tolerance;
            check_true "survivor sub-platform"
              (o.Recovery_policy.procs = [| 2; 3 |]);
            check_int "remapped on the survivors" 2
              (Platform.size
                 (Mapping.platform o.Recovery_policy.mapping))
        | v -> Alcotest.failf "expected Reduced_eps 1, got %s" (level_of v));
    case "a single survivor gets the unreplicated remap" (fun () ->
        let dag = Classic.chain ~n:2 ~exec:1.0 ~volume:1.0 in
        let m =
          Fixtures.must_schedule `Rltf
            (Types.problem ~dag ~platform:(Fixtures.uniform 3) ~eps:1
               ~throughput:0.01)
        in
        match Recovery_policy.react ~throughput:0.01 ~failed:[ 0; 1 ] m with
        | Recovery_policy.Restored o ->
            check_true "best effort"
              (o.Recovery_policy.level = Recovery_policy.Best_effort_remap);
            check_int "no tolerance left" 0 o.Recovery_policy.tolerance;
            check_true "lives on the last survivor"
              (o.Recovery_policy.procs = [| 2 |])
        | v -> Alcotest.failf "expected Best_effort_remap, got %s" (level_of v));
    case "no survivors is a terminal outage" (fun () ->
        let m = two_on_shared_lanes () in
        match Recovery_policy.react ~throughput:0.6 ~failed:[ 0; 1; 2 ] m with
        | Recovery_policy.Outage { attempts } -> check_int "no rungs tried" 0 attempts
        | v -> Alcotest.failf "expected Outage, got %s" (level_of v));
    case "the retry budget cuts the chain short" (fun () ->
        (* one attempt only: the bounded restore fails and nothing else
           may be tried *)
        let m = two_on_shared_lanes () in
        match
          Recovery_policy.react ~max_attempts:1 ~throughput:0.6 ~failed:[ 0 ] m
        with
        | Recovery_policy.Outage { attempts } -> check_int "one rung" 1 attempts
        | v -> Alcotest.failf "expected Outage, got %s" (level_of v));
    case "react validates its arguments" (fun () ->
        let m = two_on_shared_lanes () in
        Alcotest.check_raises "out of range" (Invalid_argument "") (fun () ->
            try ignore (Recovery_policy.react ~throughput:0.6 ~failed:[ 9 ] m)
            with Invalid_argument _ -> raise (Invalid_argument ""));
        Alcotest.check_raises "bad budget" (Invalid_argument "") (fun () ->
            try
              ignore
                (Recovery_policy.react ~max_attempts:0 ~throughput:0.6
                   ~failed:[ 0 ] m)
            with Invalid_argument _ -> raise (Invalid_argument "")));
  ]

(* ------------------------------------------------------------------ *)
(* Ablation options                                                     *)
(* ------------------------------------------------------------------ *)

let options_tests =
  let run_with opts =
    let inst = Fixtures.paper_instance ~seed:55 ~granularity:1.0 () in
    let prob =
      Types.problem ~dag:inst.Paper_workload.dag
        ~platform:inst.Paper_workload.plat ~eps:1
        ~throughput:(Paper_workload.throughput ~eps:1)
    in
    Rltf.schedule ~opts:Scheduler.(opts |> with_mode Best_effort) prob
  in
  [
    case "every ablation configuration stays fault tolerant" (fun () ->
        List.iter
          (fun (name, opts) ->
            match run_with opts with
            | Error f ->
                Alcotest.failf "%s failed: %s" name (Types.failure_to_string f)
            | Ok m -> Fixtures.check_tolerant ~what:name m)
          Fig_ablation.configurations);
    case "disabling one-to-one changes the pairing structure" (fun () ->
        let default = Option.get (Result.to_option (run_with Scheduler.default)) in
        let without =
          Option.get
            (Result.to_option
               (run_with Scheduler.(default |> with_use_one_to_one false)))
        in
        (* not necessarily more messages, but a different schedule *)
        check_true "different schedules"
          (fingerprint default <> fingerprint without
          || Mapping.n_messages default <> Mapping.n_messages without));
    case "a tiny lane budget forces full groups" (fun () ->
        match run_with Scheduler.(default |> with_lane_budget_factor 0.01) with
        | Error _ -> ()
        | Ok m ->
            Fixtures.check_tolerant m;
            (* with budget 1 every remote sole-source is rejected, so the
               message count approaches the full-replication regime *)
            check_true "many messages" (Mapping.n_messages m > 0));
    case "options default equals not passing them" (fun () ->
        let a = Option.get (Result.to_option (run_with Scheduler.default)) in
        let inst = Fixtures.paper_instance ~seed:55 ~granularity:1.0 () in
        let prob =
          Types.problem ~dag:inst.Paper_workload.dag
            ~platform:inst.Paper_workload.plat ~eps:1
            ~throughput:(Paper_workload.throughput ~eps:1)
        in
        let b =
          Option.get (Result.to_option (Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob))
        in
        Alcotest.(check string) "identical" (fingerprint a) (fingerprint b));
  ]

let () =
  Alcotest.run "streamsched-core"
    [
      ("types", types_tests);
      ("classic-graphs", classic_tests);
      ("scheduler-state", state_tests);
      ("determinism", determinism_tests);
      ("source-derivation", derivation_tests);
      ("extensions", extension_tests);
      ("exact-optimum", optimal_tests);
      ("recovery", recovery_tests);
      ("recovery-policy", policy_tests);
      ("ablation-options", options_tests);
      ("integration", integration_tests);
    ]
