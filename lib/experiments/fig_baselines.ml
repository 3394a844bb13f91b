type row = {
  name : string;
  stages : Stats.summary;
  latency_bound : Stats.summary;
  sim_latency : Stats.summary;
  meets_throughput : int;
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

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 30) ?(jobs = 1) () =
  let granularity = 1.0 in
  let throughput = Paper_workload.throughput ~eps:0 in
  let algos = algorithms ~throughput in
  (* One graph is a pure function of its rep index, so the graphs can run
     on a domain pool; the per-rep results come back in rep order, making
     the result identical for every [jobs]. *)
  let measure rep =
    let _, inst = Fig_common.rep_instance Spec.default ~seed ~rep in
    let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
    List.filter_map
      (fun (name, algo) ->
        match algo dag plat with
        | None -> None
        | Some mapping ->
            Some
              ( name,
                ( float_of_int (Metrics.stage_depth mapping),
                  Metrics.latency_bound mapping ~throughput,
                  (Crash.estimate ~source:(Crash.Of_mapping mapping)
                     ~method_:(Crash.Fixed []) ())
                    .Crash.est_mean,
                  Metrics.meets_throughput mapping ~throughput ) ))
      algos
  in
  let per_rep = Parallel.map_seeded ~jobs measure (List.init graphs Fun.id) in
  let rows =
    List.filter_map
      (fun (name, _) ->
        let mine = Fig_common.per_label name per_rep in
        match
          ( Stats.summarize_opt (List.map (fun (s, _, _, _) -> s) mine),
            Stats.summarize_opt (List.map (fun (_, b, _, _) -> b) mine),
            Stats.summarize_opt (List.filter_map (fun (_, _, l, _) -> l) mine) )
        with
        | Some stages, Some latency_bound, Some sim_latency ->
            Some
              {
                name;
                stages;
                latency_bound;
                sim_latency;
                meets_throughput =
                  List.length (List.filter (fun (_, _, _, m) -> m) mine);
              }
        | _ -> None)
      algos
  in
  Printf.printf
    "Baseline comparison (eps=0, g=%.1f, %d graphs, T=%.3f):\n" granularity
    graphs throughput;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-baselines.csv")
    [
      Fig_common.text "algorithm" (fun r -> r.name);
      Fig_common.num "stages" "stages" "%.1f" "%.3f" (fun r -> r.stages.Stats.mean);
      Fig_common.num "latency bound" "latency_bound" "%.1f" "%.3f" (fun r ->
          r.latency_bound.Stats.mean);
      Fig_common.num "sim latency" "sim_latency" "%.1f" "%.3f" (fun r ->
          r.sim_latency.Stats.mean);
      Fig_common.count "meets T" "meets_T" ~total:graphs (fun r ->
          r.meets_throughput);
    ]
    rows;
  rows
