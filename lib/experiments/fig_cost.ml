type sample = { kept_procs : float; cost_fraction : float }

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 8) ~jobs () =
  let eps = 1 and latency_factor = 1.5 in
  let granularities = [ 0.6; 1.0; 1.6 ] in
  let throughput = Paper_workload.throughput ~eps in
  let unmet = { kept_procs = nan; cost_fraction = nan } in
  (* Every granularity regenerates the rep's graph from the same seed. *)
  let measure rep =
    List.map
      (fun granularity ->
        let rng = Rng.create ~seed:(seed + (3571 * rep)) in
        let inst = Spec.generate Spec.default ~rng ~granularity () in
        let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
        ( granularity,
          match Rltf.schedule (Types.problem ~dag ~platform:plat ~eps ~throughput) with
          | Error _ -> unmet
          | Ok reference -> (
              let latency_bound =
                latency_factor *. Metrics.latency_bound reference ~throughput
              in
              match
                Platform_cost.minimize ~latency_bound ~dag ~platform:plat ~eps
                  ~throughput ()
              with
              | None -> unmet
              | Some r ->
                  {
                    kept_procs = float_of_int (List.length r.Platform_cost.kept);
                    cost_fraction =
                      r.Platform_cost.cost /. r.Platform_cost.full_cost;
                  }) ))
      granularities
  in
  let kept s = s.kept_procs and fraction s = s.cost_fraction in
  let rows =
    Fig_common.graph_pass ~jobs ~graphs granularities measure
    |> Fig_common.measured [ kept; fraction ]
  in
  Printf.printf
    "Platform cost minimization (eps=%d, latency budget %.1fx, %d graphs):\n"
    eps latency_factor graphs;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-cost.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" fst;
      Fig_common.mean "processors kept (of 20)" "kept_procs" "%.1f" "%.3f" kept;
      Fig_common.mean "cost fraction" "cost_fraction" "%.2f" "%.4f" fraction;
    ]
    rows;
  rows
