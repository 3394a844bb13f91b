type row = {
  granularity : float;
  best_throughput : Stats.summary;
  best_eps : Stats.summary;
}

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 10) () =
  let latency_factor = 1.5 in
  let rows =
    List.filter_map
      (fun granularity ->
        let throughputs = ref [] and epss = ref [] in
        for rep = 0 to graphs - 1 do
          let rng = Rng.create ~seed:(seed + (104729 * rep)) in
          let inst = Spec.generate Spec.default ~rng ~granularity () in
          let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
          let t1 = Paper_workload.throughput ~eps:1 in
          match Rltf.schedule (Types.problem ~dag ~platform:plat ~eps:1 ~throughput:t1) with
          | Error _ -> ()
          | Ok mapping ->
              let latency_bound =
                latency_factor *. Metrics.latency_bound mapping ~throughput:t1
              in
              (match
                 (Symmetric.max_throughput ~iterations:12 ~dag ~platform:plat
                    ~eps:1 ~latency_bound ())
                   .Symmetric.best
               with
              | Some (t, _) -> throughputs := t :: !throughputs
              | None -> ());
              (match
                 (Symmetric.max_failures ~dag ~platform:plat ~throughput:t1
                    ~latency_bound ())
                   .Symmetric.best
               with
              | Some (eps, _) -> epss := eps :: !epss
              | None -> ())
        done;
        match (Stats.summarize_opt !throughputs, Stats.summarize_opt !epss) with
        | Some best_throughput, Some best_eps ->
            Some { granularity; best_throughput; best_eps }
        | _ -> None)
      [ 0.6; 1.0; 1.4; 2.0 ]
  in
  Printf.printf
    "Symmetric problems (Section 6), latency bound = %.1fx the R-LTF bound:\n"
    latency_factor;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-symmetric.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" (fun r -> r.granularity);
      Fig_common.num "max throughput (eps=1)" "max_throughput" "%.4f" "%.6f"
        (fun r -> r.best_throughput.Stats.mean);
      Fig_common.num "max eps (T=1/20)" "max_eps" "%.2f" "%.3f" (fun r ->
          r.best_eps.Stats.mean);
    ]
    rows;
  rows
