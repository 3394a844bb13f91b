(* The "symmetric" problems of the paper's conclusion (§6): instead of
   minimizing latency under a throughput constraint, find

     (a) the highest throughput sustainable under a latency budget and a
         reliability requirement, and
     (b) the most failures tolerable under both a latency budget and a
         throughput requirement —

   here for a Gaussian-elimination workflow on an 8-node cluster.

     dune exec examples/adaptive_throughput.exe
*)

let () =
  let platform =
    Platform.homogeneous ~name:"cluster8" ~m:8 ~speed:1.0 ~bandwidth:4.0 ()
  in
  let dag =
    Calibrate.normalize_time
      (Classic.gaussian_elimination ~n:6 ~exec:10.0 ~volume:4.0)
      platform
  in
  Printf.printf "Workflow: %s (%d tasks, %d edges)\n" (Dag.name dag)
    (Dag.size dag) (Dag.n_edges dag);

  (* (a) Maximize throughput with eps = 1 under a latency budget. *)
  let latency_bound = 120.0 in
  let result =
    Symmetric.max_throughput ~dag ~platform ~eps:1 ~latency_bound ()
  in
  (match result.Symmetric.best with
  | Some (throughput, mapping) ->
      Printf.printf
        "max throughput under L <= %.0f, eps = 1: T = 1/%.1f (S = %d, %d \
         oracle calls)\n"
        latency_bound (1.0 /. throughput)
        (Metrics.stage_depth mapping)
        result.Symmetric.evaluations
  | None ->
      Printf.printf "no feasible throughput under L <= %.0f with eps = 1\n"
        latency_bound);

  (* (b) Maximize the tolerated failures under both constraints. *)
  let throughput = 1.0 /. 30.0 in
  let result =
    Symmetric.max_failures ~dag ~platform ~throughput ~latency_bound ()
  in
  match result.Symmetric.best with
  | Some (eps, mapping) ->
      Printf.printf
        "max failures under L <= %.0f and T = 1/30: eps = %.0f (S = %d)\n"
        latency_bound eps
        (Metrics.stage_depth mapping);
      (* Demonstrate the guarantee by failing that many processors. *)
      let failed = List.init (int_of_float eps) Fun.id in
      (match
         (Crash.estimate ~source:(Crash.Of_mapping mapping)
            ~method_:(Crash.Fixed failed) ())
           .Crash.est_mean
       with
      | Some l ->
          Printf.printf "with processors {%s} down the latency is %.1f\n"
            (String.concat ", " (List.map string_of_int failed))
            l
      | None -> print_endline "outputs lost (unexpected)")
  | None -> print_endline "no eps is feasible under both constraints"
