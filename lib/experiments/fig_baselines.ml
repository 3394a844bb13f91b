type sample = {
  stages : float;
  latency_bound : float;
  sim_latency : float;
  meets_throughput : bool;
}

(* One uniform sweep over the two registries: the core algorithms
   (labelled with the ε they run at, since they otherwise replicate) and
   the §3 baselines.  Every entry goes through the same [Algo.run] door —
   no per-algorithm cases. *)
let algorithms ~throughput =
  let opts = Scheduler.(default |> with_mode Best_effort) in
  let entry ?(suffix = "") (module A : Scheduler.Algo) =
    ( A.name ^ suffix,
      fun dag plat ->
        Result.to_option
          (A.run ~opts (Types.problem ~dag ~platform:plat ~eps:0 ~throughput))
    )
  in
  List.map (entry ~suffix:" (eps=0)") Scheduler.all
  @ List.map (fun a -> entry a) Baseline_registry.all

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 30) ~jobs () =
  let granularity = 1.0 in
  let throughput = Paper_workload.throughput ~eps:0 in
  let algos = algorithms ~throughput in
  let measure rep =
    let _, inst = Fig_common.rep_instance Spec.default ~seed ~rep in
    let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
    List.filter_map
      (fun (name, algo) ->
        Option.map
          (fun mapping ->
            ( name,
              {
                stages = float_of_int (Metrics.stage_depth mapping);
                latency_bound = Metrics.latency_bound mapping ~throughput;
                sim_latency =
                  Option.value ~default:nan
                    (Crash.estimate ~source:(Crash.Of_mapping mapping)
                       ~method_:(Crash.Fixed []) ())
                      .Crash.est_mean;
                meets_throughput = Metrics.meets_throughput mapping ~throughput;
              } ))
          (algo dag plat))
      algos
  in
  let stages s = s.stages and latency_bound s = s.latency_bound in
  let sim_latency s = s.sim_latency in
  let rows =
    Fig_common.graph_pass ~jobs ~graphs (List.map fst algos) measure
    |> Fig_common.measured [ stages; latency_bound; sim_latency ]
  in
  Printf.printf
    "Baseline comparison (eps=0, g=%.1f, %d graphs, T=%.3f):\n" granularity
    graphs throughput;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-baselines.csv")
    [
      Fig_common.text "algorithm" fst;
      Fig_common.mean "stages" "stages" "%.1f" "%.3f" stages;
      Fig_common.mean "latency bound" "latency_bound" "%.1f" "%.3f" latency_bound;
      Fig_common.mean "sim latency" "sim_latency" "%.1f" "%.3f" sim_latency;
      Fig_common.hits "meets T" "meets_T" ~total:graphs (fun s ->
          s.meets_throughput);
    ]
    rows;
  rows
