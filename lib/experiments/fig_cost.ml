type row = {
  granularity : float;
  kept_procs : Stats.summary;
  cost_fraction : Stats.summary;
}

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 8) () =
  let eps = 1 and latency_factor = 1.5 in
  let throughput = Paper_workload.throughput ~eps in
  let rows =
    List.filter_map
      (fun granularity ->
        let kept = ref [] and fraction = ref [] in
        for rep = 0 to graphs - 1 do
          let rng = Rng.create ~seed:(seed + (3571 * rep)) in
          let inst = Spec.generate Spec.default ~rng ~granularity () in
          let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
          match Rltf.schedule (Types.problem ~dag ~platform:plat ~eps ~throughput) with
          | Error _ -> ()
          | Ok reference -> (
              let latency_bound =
                latency_factor *. Metrics.latency_bound reference ~throughput
              in
              match
                Platform_cost.minimize ~latency_bound ~dag ~platform:plat ~eps
                  ~throughput ()
              with
              | None -> ()
              | Some r ->
                  kept := float_of_int (List.length r.Platform_cost.kept) :: !kept;
                  fraction :=
                    (r.Platform_cost.cost /. r.Platform_cost.full_cost)
                    :: !fraction)
        done;
        match (Stats.summarize_opt !kept, Stats.summarize_opt !fraction) with
        | Some kept_procs, Some cost_fraction ->
            Some { granularity; kept_procs; cost_fraction }
        | _ -> None)
      [ 0.6; 1.0; 1.6 ]
  in
  Printf.printf
    "Platform cost minimization (eps=%d, latency budget %.1fx, %d graphs):\n"
    eps latency_factor graphs;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-cost.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" (fun r -> r.granularity);
      Fig_common.num "processors kept (of 20)" "kept_procs" "%.1f" "%.3f"
        (fun r -> r.kept_procs.Stats.mean);
      Fig_common.num "cost fraction" "cost_fraction" "%.2f" "%.4f" (fun r ->
          r.cost_fraction.Stats.mean);
    ]
    rows;
  rows
