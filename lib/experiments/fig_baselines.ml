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

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 30)
    ?(granularity = 1.0) ?(jobs = 1) () =
  let throughput = Paper_workload.throughput ~eps:0 in
  let algos = algorithms ~throughput in
  (* One graph is a pure function of its rep index, so the graphs can run
     on a domain pool; aggregation below stays in rep order, making the
     result identical for every [jobs]. *)
  let measure rep =
    let rng = Rng.create ~seed:(seed + (7919 * rep)) in
    let inst = Spec.generate Spec.default ~rng ~granularity () in
    let dag = inst.Paper_workload.dag and plat = inst.Paper_workload.plat in
    List.filter_map
      (fun (name, algo) ->
        match algo dag plat with
        | None -> None
        | Some mapping ->
            Some
              ( name,
                float_of_int (Metrics.stage_depth mapping),
                Metrics.latency_bound mapping ~throughput,
                (Crash.estimate ~source:(Crash.Of_mapping mapping)
                   ~method_:(Crash.Fixed []) ())
                  .Crash.est_mean,
                Metrics.meets_throughput mapping ~throughput ))
      algos
  in
  let per_rep = Parallel.map_seeded ~jobs measure (List.init graphs Fun.id) in
  let acc = Hashtbl.create 16 in
  let record name field value =
    let key = (name, field) in
    let prev = try Hashtbl.find acc key with Not_found -> [] in
    Hashtbl.replace acc key (value :: prev)
  in
  let meets = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, stages, bound, sim, meets_t) ->
         record name `Stages stages;
         record name `Bound bound;
         (match sim with Some l -> record name `Sim l | None -> ());
         if meets_t then
           Hashtbl.replace meets name
             (1 + try Hashtbl.find meets name with Not_found -> 0)))
    per_rep;
  let rows =
    List.filter_map
      (fun (name, _) ->
        let get field = try Hashtbl.find acc (name, field) with Not_found -> [] in
        match
          ( Stats.summarize_opt (get `Stages),
            Stats.summarize_opt (get `Bound),
            Stats.summarize_opt (get `Sim) )
        with
        | Some stages, Some latency_bound, Some sim_latency ->
            Some
              {
                name;
                stages;
                latency_bound;
                sim_latency;
                meets_throughput =
                  (try Hashtbl.find meets name with Not_found -> 0);
              }
        | _ -> None)
      algos
  in
  Printf.printf
    "Baseline comparison (eps=0, g=%.1f, %d graphs, T=%.3f):\n" granularity
    graphs throughput;
  Ascii_table.print
    ~header:[ "algorithm"; "stages"; "latency bound"; "sim latency"; "meets T" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.1f" r.stages.Stats.mean;
           Printf.sprintf "%.1f" r.latency_bound.Stats.mean;
           Printf.sprintf "%.1f" r.sim_latency.Stats.mean;
           Printf.sprintf "%d/%d" r.meets_throughput graphs;
         ])
       rows);
  Csv.write
    ~path:(Filename.concat out_dir "fig-baselines.csv")
    ~header:[ "algorithm"; "stages"; "latency_bound"; "sim_latency"; "meets_T" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.3f" r.stages.Stats.mean;
           Printf.sprintf "%.3f" r.latency_bound.Stats.mean;
           Printf.sprintf "%.3f" r.sim_latency.Stats.mean;
           string_of_int r.meets_throughput;
         ])
       rows);
  rows
