(* Failure drill: exhaustively fail every subset of processors up to the
   tolerated size on a scheduled FFT workflow and verify the outputs
   survive with bounded degradation — then push beyond the tolerance and
   watch the schedule break.  Demonstrates the difference between the
   designed guarantee (eps failures) and actual behaviour beyond it.

     dune exec examples/failure_drill.exe
*)

let rec subsets_of_size k lo m =
  if k = 0 then [ [] ]
  else if lo >= m then []
  else
    List.map (fun rest -> lo :: rest) (subsets_of_size (k - 1) (lo + 1) m)
    @ subsets_of_size k (lo + 1) m

let () =
  let platform =
    Platform.homogeneous ~name:"drill" ~m:10 ~speed:1.0 ~bandwidth:2.0 ()
  in
  let dag =
    Calibrate.normalize_time (Classic.fft ~p:3 ~exec:5.0 ~volume:2.0) platform
  in
  let eps = 2 in
  let throughput = 1.0 /. 16.0 in
  let problem = Types.problem ~dag ~platform ~eps ~throughput in
  match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) problem with
  | Error f -> Printf.printf "scheduling failed: %s\n" (Types.failure_to_string f)
  | Ok mapping ->
      Printf.printf "FFT-8 workflow (%d tasks), eps = %d, m = 10\n\n"
        (Dag.size dag) eps;
      let m = Platform.size platform in
      let drill k =
        let sets = subsets_of_size k 0 m in
        let survived = ref 0 and lost = ref 0 in
        let worst = ref 0.0 in
        List.iter
          (fun failed ->
            match
              (Crash.estimate ~source:(Crash.Of_mapping mapping)
                 ~method_:(Crash.Fixed failed) ())
                .Crash.est_mean
            with
            | Some l ->
                incr survived;
                if l > !worst then worst := l
            | None -> incr lost)
          sets;
        Printf.printf
          "%d failure(s): %4d/%-4d subsets survive; worst latency %.2f%s\n" k
          !survived (List.length sets) !worst
          (if !lost > 0 then Printf.sprintf "  (%d subsets LOSE output)" !lost
           else "")
      in
      (* Within the guarantee: every subset must survive. *)
      for k = 0 to eps do
        drill k
      done;
      (* Beyond it: some subsets are expected to lose the outputs. *)
      for k = eps + 1 to eps + 2 do
        drill k
      done;
      (* Recovery: after two real crashes the schedule has spent its whole
         tolerance; restoring the replication degree makes it survive two
         fresh failures again. *)
      print_newline ();
      let crashed = [ 0; 1 ] in
      (match Recovery.restore ~throughput mapping ~failed:crashed with
      | Error e ->
          Printf.printf "recovery failed: %s\n" (Recovery.error_to_string e)
      | Ok restored ->
          let fresh = subsets_of_size eps 2 m in
          let ok =
            List.for_all
              (fun extra -> Validate.survives restored ~failed:(crashed @ extra))
              fresh
          in
          Printf.printf
            "after crashing {P0, P1} and recovering: %d fresh %d-failure \
             subsets all survive: %b\n"
            (List.length fresh) eps ok);
      (* Gray-failure drill: faults that do not kill anything.  A
         straggler makes the busiest processor 3x slower — every item
         still arrives, just later.  A retry storm adds transient faults
         on top: attempts fail and are re-driven after backoff, so
         latency climbs again while availability stays high. *)
      print_newline ();
      let prog = Engine.compile mapping in
      let n_items = 50 in
      let busiest =
        let load = Array.make m 0 in
        Mapping.iter mapping (fun r ->
            load.(r.Replica.proc) <- load.(r.Replica.proc) + 1);
        let best = ref 0 in
        Array.iteri (fun u c -> if c > load.(!best) then best := u) load;
        !best
      in
      let run faults =
        let r =
          Engine.simulate
            ~config:
              (Engine.Run.with_faults faults
                 (Engine.Run.closed ~n_items ()))
            prog
        in
        let sojourns = Engine.sojourns r in
        let availability =
          float_of_int (List.length sojourns) /. float_of_int n_items
        in
        let mean =
          List.fold_left ( +. ) 0.0 sojourns
          /. float_of_int (max 1 (List.length sojourns))
        in
        (availability, mean, r.Engine.faults.Engine.retries)
      in
      let straggler =
        {
          Faults.Gray.stragglers =
            [
              ( busiest,
                { Faults.Gray.g_from = 0.0; g_until = 1e15; factor = 3.0 } );
            ];
          links = [];
        }
      in
      let gray = { Faults.none with Faults.gray = straggler } in
      let storm =
        {
          Faults.transient =
            {
              Faults.Transient.none with
              Faults.Transient.exec_rate = 0.1;
              comm_rate = 0.1;
              seed = 42;
            };
          retry =
            Faults.Backoff.make
              ~base_delay:(0.5 *. Engine.program_period prog)
              ~max_retries:4 ();
          gray = straggler;
        }
      in
      let a0, l0, _ = run Faults.none in
      let a1, l1, _ = run gray in
      let a2, l2, retries = run storm in
      Printf.printf
        "gray drill (%d items): clean availability %.2f, mean latency %.2f\n"
        n_items a0 l0;
      Printf.printf
        "  straggler on P%d (3x slower): availability %.2f, mean latency \
         %.2f\n"
        busiest a1 l1;
      Printf.printf
        "  + retry storm (10%% faults, 4 retries): availability %.2f, mean \
         latency %.2f, %d retries\n"
        a2 l2 retries;
      (* Gray failures degrade, they do not lose: the straggler must
         deliver everything, and the retry storm must stay near-complete
         while strictly inflating latency. *)
      assert (a0 = 1.0 && a1 = 1.0);
      assert (a2 >= 0.9);
      assert (l1 >= l0);
      assert (l2 > l1);
      assert (retries > 0)
