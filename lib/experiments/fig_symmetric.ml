type sample = { best_throughput : float; best_eps : float }

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 10) ~jobs () =
  let latency_factor = 1.5 and granularities = [ 0.6; 1.0; 1.4; 2.0 ] in
  let best (r : Symmetric.search_result) =
    match r.Symmetric.best with Some (v, _) -> v | None -> nan
  in
  (* Every granularity regenerates the rep's graph from the same seed. *)
  let measure rep =
    List.map
      (fun granularity ->
        let rng = Rng.create ~seed:(seed + (104729 * rep)) in
        let inst = Spec.generate Spec.default ~rng ~granularity () in
        let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
        let t1 = Paper_workload.throughput ~eps:1 in
        ( granularity,
          match Rltf.schedule (Types.problem ~dag ~platform:plat ~eps:1 ~throughput:t1) with
          | Error _ -> { best_throughput = nan; best_eps = nan }
          | Ok mapping ->
              let latency_bound =
                latency_factor *. Metrics.latency_bound mapping ~throughput:t1
              in
              {
                best_throughput =
                  best
                    (Symmetric.max_throughput ~iterations:12 ~dag ~platform:plat
                       ~eps:1 ~latency_bound ());
                best_eps =
                  best
                    (Symmetric.max_failures ~dag ~platform:plat ~throughput:t1
                       ~latency_bound ());
              } ))
      granularities
  in
  let throughput s = s.best_throughput and eps s = s.best_eps in
  let rows =
    Fig_common.graph_pass ~jobs ~graphs granularities measure
    |> Fig_common.measured [ throughput; eps ]
  in
  Printf.printf
    "Symmetric problems (Section 6), latency bound = %.1fx the R-LTF bound:\n"
    latency_factor;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-symmetric.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" fst;
      Fig_common.mean "max throughput (eps=1)" "max_throughput" "%.4f" "%.6f"
        throughput;
      Fig_common.mean "max eps (T=1/20)" "max_eps" "%.2f" "%.3f" eps;
    ]
    rows;
  rows
