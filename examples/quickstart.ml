(* Quickstart: schedule a small streaming workflow on a heterogeneous
   platform so that it survives one processor failure, sustains a desired
   throughput, and has low pipelined latency.

     dune exec examples/quickstart.exe
*)

let () =
  (* A 6-task workflow: source -> two parallel filters -> merge -> two
     post-processing steps.  Weights are work units; edge volumes are data
     units. *)
  let dag =
    Dag.of_edges ~name:"quickstart"
      ~exec:[| 4.0; 3.0; 5.0; 2.0; 3.0; 1.0 |]
      [
        (0, 1, 1.0);
        (0, 2, 1.0);
        (1, 3, 0.5);
        (2, 3, 0.5);
        (3, 4, 1.0);
        (4, 5, 0.5);
      ]
  in
  (* Four processors, two fast and two slow, fully connected. *)
  let platform =
    Platform.create ~name:"quickstart-platform"
      ~speeds:[| 2.0; 1.0; 2.0; 1.0 |]
      ~bandwidth:(Array.make_matrix 4 4 2.0)
      ()
  in
  (* Tolerate one failure, process one item every 12 time units. *)
  let problem = Types.problem ~dag ~platform ~eps:1 ~throughput:(1.0 /. 12.0) in
  match Rltf.schedule problem with
  | Error failure ->
      Printf.printf "R-LTF could not schedule: %s\n"
        (Types.failure_to_string failure)
  | Ok mapping ->
      Format.printf "%a@." Mapping.pp mapping;
      Printf.printf "pipeline stages   S = %d\n" (Metrics.stage_depth mapping);
      Printf.printf "latency bound     L = (2S-1)/T = %.1f\n"
        (Metrics.latency_bound mapping ~throughput:problem.Types.throughput);
      Printf.printf "achieved period   %.2f (desired %.2f)\n"
        (Metrics.period mapping)
        (Types.period problem);
      (* The validator re-checks the fault-tolerance guarantee from first
         principles: every single-processor failure leaves all outputs
         reachable. *)
      (match Validate.all mapping ~throughput:problem.Types.throughput with
      | [] -> print_endline "validation        ok (throughput + 1-failure tolerance)"
      | errors ->
          List.iter
            (fun e -> Printf.printf "validation error: %s\n" (Validate.error_to_string e))
            errors);
      (* Replay the schedule through the one-port discrete-event engine,
         once healthy and once with processor 0 failed. *)
      let latency failed =
        (Crash.estimate ~source:(Crash.Of_mapping mapping)
           ~method_:(Crash.Fixed failed) ())
          .Crash.est_mean
      in
      (match latency [] with
      | Some l -> Printf.printf "simulated latency %.2f (no failures)\n" l
      | None -> print_endline "simulation lost the outputs (unexpected)");
      match latency [ 0 ] with
      | Some l -> Printf.printf "simulated latency %.2f (processor 0 failed)\n" l
      | None -> print_endline "outputs lost when P0 failed (unexpected)"
