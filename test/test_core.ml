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

(* Place a replica by hand: every predecessor's whole group as sources,
   on the first processor that does not host the task yet. *)
let place_by_hand state ~task ~copy =
  State.start_step state ~task ~copy;
  let proc = ref 0 in
  while Mapping.mapped (State.mapping state) task !proc do
    incr proc
  done;
  let n_preds = Dag.in_degree (State.problem state).Types.dag task in
  State.transfers state ~proc:!proc (Array.make n_preds (-1));
  State.evaluate state;
  State.swap state;
  State.commit state

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
                      (Bitset.disjoint
                         (State.support state { Replica.task = t; copy = a })
                         (State.support state { Replica.task = t; copy = b }))
                  done
                done));
    (* Three sources on three processors, each overflowing its send port:
       the penalty adds the overflows in the order of each sender's first
       transfer.  The volumes are picked so that the order shows: the
       reverse order rounds differently. *)
    case "admission sums three overflowing senders in first-transfer order"
      (fun () ->
        let dag =
          Dag.of_edges ~exec:[| 1.0; 1.0; 1.0; 1.0 |]
            [ (0, 3, 1.1); (1, 3, 3.7); (2, 3, 1.2) ]
        in
        let prob =
          Types.problem ~dag ~platform:(Fixtures.uniform 4) ~eps:0 ~throughput:1.0
        in
        let state = State.create prob in
        List.iter
          (fun task ->
            State.start_step state ~task ~copy:0;
            State.transfers state ~proc:(task + 1) [||];
            State.evaluate state;
            State.swap state;
            State.commit state)
          [ 0; 1; 2 ];
        State.start_step state ~task:3 ~copy:0;
        State.transfers state ~proc:0 [| 0; 1; 2 |];
        State.admission state;
        let c = State.candidate state in
        let transfers = List.init c.p_n (fun k -> (c.p_src_proc.(k), c.p_dur.(k))) in
        let l = State.loads state and delta = Types.period prob in
        let over current extra = Float.max 0.0 (current +. extra -. delta) in
        let overflow (sp, dur) = over l.Loads.c_out.(sp) dur in
        let incoming = List.fold_left (fun acc (_, dur) -> acc +. dur) 0.0 transfers in
        let base = over l.Loads.sigma.(0) 1.0 +. over l.Loads.c_in.(0) incoming in
        (* one transfer per sender, so transfer order is first-transfer order *)
        let in_order = List.fold_left (fun acc tr -> acc +. overflow tr) 0.0 transfers in
        let reversed = List.fold_right (fun tr acc -> acc +. overflow tr) transfers 0.0 in
        let bits = Int64.bits_of_float in
        check_int "three senders" 3
          (List.length (List.sort_uniq Int.compare (List.map fst transfers)));
        check_int "all three overflow" 3
          (List.length (List.filter (fun tr -> overflow tr > 0.0) transfers));
        check_true "the summation order shows in the penalty"
          (bits (base +. in_order) <> bits (base +. reversed));
        check_true "infeasible" (not c.p_feasible);
        check_true "penalty bit-identical to the first-transfer-order sum"
          (bits c.p_at.penalty = bits (base +. in_order)));
    (* Half of gauss5 placed by hand, then replica 1 of the next task with
       more than one predecessor is judged on every free processor the
       way a placement step judges a candidate: both general rows, and
       per row the transfers, the admission, the timeline probe, the
       floors against the probe as incumbent, and the swap back.  After a
       warm-up pass has grown the buffers, a second pass allocates no
       minor word. *)
    case "a full placement probe allocates nothing once warm" (fun () ->
        let prob = problem ~eps:1 ~m:8 ~throughput:0.02 Fixtures.gauss5 in
        let state = State.create prob in
        let order = Topo.order Fixtures.gauss5 in
        let half = Array.length order / 2 in
        for i = 0 to half - 1 do
          for copy = 0 to 1 do
            place_by_hand state ~task:order.(i) ~copy
          done
        done;
        let task =
          let i = ref half in
          while Dag.in_degree Fixtures.gauss5 order.(!i) < 2 do
            incr i
          done;
          order.(!i)
        in
        place_by_hand state ~task ~copy:0;
        State.start_step state ~task ~copy:1;
        let n_preds = Dag.in_degree Fixtures.gauss5 task in
        State.set_floor state (Array.make n_preds (-1));
        let claimed = State.support state { Replica.task; copy = 0 }
        and rows = Array.init 2 (fun _ -> Array.make n_preds (-1))
        and budget = 4
        and probes = ref 0 in
        let free =
          Array.of_list
            (List.filter
               (fun proc -> not (Mapping.mapped (State.mapping state) task proc))
               (List.init 8 Fun.id))
        in
        let pass () =
          for i = 0 to Array.length free - 1 do
            let proc = free.(i) in
            for v =
              0
              to State.general_rows state Sched_api.Both_variants ~claimed ~budget
                   ~proc rows
                 - 1
            do
              State.transfers state ~proc rows.(v);
              State.admission state;
              State.evaluate state;
              State.swap state;
              ignore (State.stage_floor state ~proc);
              ignore (State.finish_floor_above state ~proc);
              State.swap state;
              incr probes
            done
          done
        in
        pass ();
        let before = Gc.minor_words () in
        pass ();
        let after = Gc.minor_words () in
        check_true "a probe took place" (!probes > 0);
        check_true "transfers were probed" ((State.candidate state).p_n > 0);
        Fixtures.check_float "minor words of the second pass" 0.0 (after -. before));
    (* Task 1 fed by task 0, placed on processor 1; task 1's replica 0 is
       judged on processor 2.  The greedy row names task 0's replica 0,
       the conservative row (nothing co-located) its whole group.  At
       ε = 0 that group is the one replica: one variant, not two.  At
       ε = 1 the group is two replicas, and both variants are offered. *)
    case "a one-replica group and its replica are one general variant"
      (fun () ->
        let dag = Dag.of_edges ~exec:[| 1.0; 1.0 |] [ (0, 1, 1.0) ] in
        let variants ~eps =
          let prob =
            Types.problem ~dag ~platform:(Fixtures.uniform 4) ~eps ~throughput:0.1
          in
          let state = State.create prob in
          for copy = 0 to eps do
            State.start_step state ~task:0 ~copy;
            State.transfers state ~proc:(1 + copy) [||];
            State.evaluate state;
            State.swap state;
            State.commit state
          done;
          State.start_step state ~task:1 ~copy:0;
          let rows = Array.init 2 (fun _ -> Array.make 1 7) in
          let n =
            State.general_rows state Sched_api.Both_variants ~claimed:Bitset.empty
              ~budget:4 ~proc:(eps + 2) rows
          in
          (n, rows.(0).(0), rows.(1).(0))
        in
        let n, greedy, conservative = variants ~eps:0 in
        check_int "greedy names the replica" 0 greedy;
        check_int "conservative names the group" (-1) conservative;
        check_int "one variant at eps = 0" 1 n;
        let n, greedy, conservative = variants ~eps:1 in
        check_int "greedy names replica 0 at eps = 1" 0 greedy;
        check_int "conservative names the group at eps = 1" (-1) conservative;
        check_int "two variants at eps = 1" 2 n);
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
        let hint task copy (src : Replica.id) =
          task = 1 && src.Replica.task = 0 && src.Replica.copy = 1 - copy
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

(* ------------------------------------------------------------------ *)
(* Pinned derivations                                                   *)
(* ------------------------------------------------------------------ *)

let text_md5 m = Digest.to_hex (Digest.string (Mapping_io.print m))

(* One line per derived mapping of paper instance [seed]: R-LTF at
   ε ∈ {1, 2, 3}, strict and best effort; the fault-free reference; and
   restorations of the best-effort ε = 1 and ε = 2 mappings after fixed
   crashes, with and without the throughput bound.  Each line names the
   mapping and the MD5 of its {!Mapping_io} text, or the failure. *)
let derivation_lines seed =
  let inst = Fixtures.paper_instance ~seed () in
  let dag = inst.Paper_workload.dag and platform = inst.Paper_workload.plat in
  let m_procs = Platform.size platform in
  let line what outcome =
    Printf.sprintf "seed %d %s %s" seed what
      (match outcome with Ok m -> text_md5 m | Error e -> "error: " ^ e)
  in
  let rltf mode eps =
    Rltf.schedule
      ~opts:Scheduler.(default |> with_mode mode)
      (Types.problem ~dag ~platform ~eps
         ~throughput:(Paper_workload.throughput ~eps))
    |> Result.map_error Types.failure_to_string
  in
  let restore ~bound eps m failed =
    let throughput =
      if bound then Some (Paper_workload.throughput ~eps) else None
    in
    Recovery.restore ?throughput m ~failed
    |> Result.map_error Recovery.error_to_string
  in
  let schedules =
    List.concat_map
      (fun eps ->
        List.map
          (fun (name, mode) ->
            line (Printf.sprintf "R-LTF eps %d %s" eps name) (rltf mode eps))
          [ ("strict", Scheduler.Strict); ("best effort", Scheduler.Best_effort) ])
      [ 1; 2; 3 ]
  in
  let ff =
    line "fault-free"
      (Fault_free.run ~dag ~platform
         ~throughput:(Paper_workload.throughput ~eps:1) ()
      |> Result.map_error Types.failure_to_string)
  in
  let restorations =
    List.concat_map
      (fun (eps, failed) ->
        match rltf Scheduler.Best_effort eps with
        | Error e -> [ line (Printf.sprintf "restore eps %d" eps) (Error e) ]
        | Ok m ->
            List.map
              (fun bound ->
                line
                  (Printf.sprintf "restore eps %d%s" eps
                     (if bound then " bounded" else ""))
                  (restore ~bound eps m failed))
              [ false; true ])
      [
        (1, [ seed mod m_procs ]);
        (2, [ (3 * seed) mod m_procs; ((3 * seed) + 7) mod m_procs ]);
      ]
  in
  schedules @ (ff :: restorations)

(* Recorded before the derivation became one flat pass: every source
   set, and so every byte of these texts, must survive any rewrite of
   [Source_derivation] or of its two hint callers. *)
let pinned_derivations =
  [
    "seed 1 R-LTF eps 1 strict a7aaf888731a71bd98719b649c091cfd";
    "seed 1 R-LTF eps 1 best effort a7aaf888731a71bd98719b649c091cfd";
    "seed 1 R-LTF eps 2 strict d8a9530219fc0deb76d96e9a8403f4e3";
    "seed 1 R-LTF eps 2 best effort d8a9530219fc0deb76d96e9a8403f4e3";
    "seed 1 R-LTF eps 3 strict 1ece9e10e0ddc845a895106c7b52aca2";
    "seed 1 R-LTF eps 3 best effort 1ece9e10e0ddc845a895106c7b52aca2";
    "seed 1 fault-free e8b40d1ce9f67ef831c18a8662ec6bc3";
    "seed 1 restore eps 1 4b8f2a440784944019671ebedd4a933c";
    "seed 1 restore eps 1 bounded 4b8f2a440784944019671ebedd4a933c";
    "seed 1 restore eps 2 ead5a68b541913c12f1d7743966ec05f";
    "seed 1 restore eps 2 bounded ead5a68b541913c12f1d7743966ec05f";
    "seed 2 R-LTF eps 1 strict error: the derived communication structure loads P7 to a cycle time of 20.4613, beyond the period";
    "seed 2 R-LTF eps 1 best effort 56c29be20058bb5f36d79eb631e7a5c5";
    "seed 2 R-LTF eps 2 strict error: no processor can host replica t19(1) under the throughput constraint";
    "seed 2 R-LTF eps 2 best effort d2d1671e8374b315a04e3625d33746c3";
    "seed 2 R-LTF eps 3 strict error: no processor can host replica t52(2) under the throughput constraint";
    "seed 2 R-LTF eps 3 best effort 009293a7d8690c0ee0920d15c1d292f7";
    "seed 2 fault-free 7c48d2a8fc6a27af0ee33d49c14bf6f0";
    "seed 2 restore eps 1 2d10ba8a7b424a93a7c6ed972a5ea1a5";
    "seed 2 restore eps 1 bounded 2d10ba8a7b424a93a7c6ed972a5ea1a5";
    "seed 2 restore eps 2 152c591c8fb085f4ee05349c5bd2029b";
    "seed 2 restore eps 2 bounded 152c591c8fb085f4ee05349c5bd2029b";
    "seed 3 R-LTF eps 1 strict 6b8dc6c56ea3da377edc7aacee091bb5";
    "seed 3 R-LTF eps 1 best effort 6b8dc6c56ea3da377edc7aacee091bb5";
    "seed 3 R-LTF eps 2 strict error: the derived communication structure loads P1 to a cycle time of 35.2177, beyond the period";
    "seed 3 R-LTF eps 2 best effort 2b661dd5ea69132afd96819f4eac58c0";
    "seed 3 R-LTF eps 3 strict error: the derived communication structure loads P12 to a cycle time of 42.2132, beyond the period";
    "seed 3 R-LTF eps 3 best effort 28db2931e29e47b10ea7f287d1d4bb86";
    "seed 3 fault-free 7d0a23505e0bb17daf5d33111f4fb308";
    "seed 3 restore eps 1 bd527aa3fa9ce32acef8f6c497921228";
    "seed 3 restore eps 1 bounded bd527aa3fa9ce32acef8f6c497921228";
    "seed 3 restore eps 2 30b59395b829a21cd75ad85b94f707d5";
    "seed 3 restore eps 2 bounded f808049d5d0af44d54e2bc8845421c65";
    "seed 4 R-LTF eps 1 strict 6027905300895bc57544181d5f110f4e";
    "seed 4 R-LTF eps 1 best effort 6027905300895bc57544181d5f110f4e";
    "seed 4 R-LTF eps 2 strict 5adade6f7fd22bf8782d24cb55a3b964";
    "seed 4 R-LTF eps 2 best effort 5adade6f7fd22bf8782d24cb55a3b964";
    "seed 4 R-LTF eps 3 strict error: no processor can host replica t0(2) under the throughput constraint";
    "seed 4 R-LTF eps 3 best effort 10e8ee7ab5df8f62479772c0e01c8ace";
    "seed 4 fault-free f4a6905e0e4779049ef5675300f29adf";
    "seed 4 restore eps 1 138aa4f12d0914ec5f6ea46b09862060";
    "seed 4 restore eps 1 bounded 138aa4f12d0914ec5f6ea46b09862060";
    "seed 4 restore eps 2 b6886478423ba352ae56366fbd02fcda";
    "seed 4 restore eps 2 bounded b6886478423ba352ae56366fbd02fcda";
    "seed 5 R-LTF eps 1 strict 832e38c4e0a4007ebcb6f21ebf4ba86b";
    "seed 5 R-LTF eps 1 best effort 832e38c4e0a4007ebcb6f21ebf4ba86b";
    "seed 5 R-LTF eps 2 strict 63d04937eb406bbb1b08576f06d24776";
    "seed 5 R-LTF eps 2 best effort 63d04937eb406bbb1b08576f06d24776";
    "seed 5 R-LTF eps 3 strict d202e1a777d1383b98d45b7f201c1a7b";
    "seed 5 R-LTF eps 3 best effort d202e1a777d1383b98d45b7f201c1a7b";
    "seed 5 fault-free 3f35c51aa3a6309abcff5884475a4ec2";
    "seed 5 restore eps 1 7a30705237e843ed99ac7cfc4d127040";
    "seed 5 restore eps 1 bounded 7a30705237e843ed99ac7cfc4d127040";
    "seed 5 restore eps 2 c078e9a069ba81eda7c88d8c1c37540c";
    "seed 5 restore eps 2 bounded c078e9a069ba81eda7c88d8c1c37540c";
  ]

(* The minor words of one unbounded [Recovery.restore] of the seed-1
   best-effort ε = 1 mapping after its first task's host crashes, the
   least over three calls, and the replicas it restores. *)
let restore_words () =
  let inst = Fixtures.paper_instance ~seed:1 () in
  let m =
    Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
      (Types.problem ~dag:inst.Paper_workload.dag
         ~platform:inst.Paper_workload.plat ~eps:1
         ~throughput:(Paper_workload.throughput ~eps:1))
  in
  let victim = (Mapping.replica_exn m 0 0).Replica.proc in
  let best = ref infinity in
  for _ = 1 to 3 do
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Recovery.restore m ~failed:[ victim ]));
    best := Float.min !best (Gc.minor_words () -. before)
  done;
  (!best, Dag.size (Mapping.dag m) * Mapping.n_copies m)

let pin_tests =
  [
    case "derived mappings match the pinned texts" (fun () ->
        Alcotest.(check (list string))
          "derivations" pinned_derivations
          (List.concat_map derivation_lines [ 1; 2; 3; 4; 5 ]));
    case "program-cache keys match the pinned digests" (fun () ->
        let inst = Fixtures.paper_instance ~seed:1 () in
        let paper =
          Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf
            (Types.problem ~dag:inst.Paper_workload.dag
               ~platform:inst.Paper_workload.plat ~eps:1
               ~throughput:(Paper_workload.throughput ~eps:1))
        in
        let key m = Digest.to_hex (Program_cache.digest m) in
        Alcotest.(check string)
          "shared lanes" "f26604d23686100d2ab6564265315494"
          (key (two_on_shared_lanes ()));
        Alcotest.(check string)
          "seed-1 R-LTF" "22d24428118fc8617a0de0017dab29dd" (key paper));
    case "one restoration allocates a bounded number of words per replica"
      (fun () ->
        let words, replicas = restore_words () in
        let per = words /. float_of_int replicas in
        if per > 200.0 then
          Alcotest.failf "%.1f minor words per replica (ceiling 200)" per);
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
      ("pins", pin_tests);
    ]
