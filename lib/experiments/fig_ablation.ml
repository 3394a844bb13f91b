type row = {
  name : string;
  strict_ok : int;
  meets : int;
  stages : Stats.summary;
  latency : Stats.summary;
  messages : Stats.summary;
}

let configurations =
  Scheduler.
    [
      ("default", default);
      ("no one-to-one", default |> with_use_one_to_one false);
      ("greedy sources only", default |> with_source_policy Greedy_only);
      ( "conservative sources only",
        default |> with_source_policy Conservative_only );
      ("half lane budget", default |> with_lane_budget_factor 0.5);
      ("double lane budget", default |> with_lane_budget_factor 2.0);
    ]

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 20) ?(jobs = 1) () =
  let granularity = 1.0 and eps = 1 in
  let throughput = Paper_workload.throughput ~eps in
  let rows =
    List.map
      (fun (name, opts) ->
        (* One graph is a pure function of its rep index; the graphs run
           on a domain pool and the folds below stay in rep order, so the
           row is identical for every [jobs]. *)
        let measure rep =
          let _, inst = Fig_common.rep_instance Spec.default ~seed ~rep in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps ~throughput
          in
          let strict_ok =
            match Rltf.schedule ~opts prob with Ok _ -> true | Error _ -> false
          in
          let best_effort =
            match
              Rltf.schedule ~opts:Scheduler.(opts |> with_mode Best_effort) prob
            with
            | Error _ -> None
            | Ok m ->
                Some
                  ( Metrics.meets_throughput m ~throughput,
                    float_of_int (Metrics.stage_depth m),
                    Metrics.latency_bound m ~throughput,
                    float_of_int (Mapping.n_messages m) )
          in
          (strict_ok, best_effort)
        in
        let per_rep =
          Parallel.map_seeded ~jobs measure (List.init graphs Fun.id)
        in
        let strict_ok = ref 0 and meets = ref 0 in
        let stages = ref [] and latency = ref [] and messages = ref [] in
        List.iter
          (fun (ok, best_effort) ->
            if ok then incr strict_ok;
            match best_effort with
            | None -> ()
            | Some (meets_t, s, l, msg) ->
                if meets_t then incr meets;
                stages := s :: !stages;
                latency := l :: !latency;
                messages := msg :: !messages)
          per_rep;
        {
          name;
          strict_ok = !strict_ok;
          meets = !meets;
          stages = Stats.summarize !stages;
          latency = Stats.summarize !latency;
          messages = Stats.summarize !messages;
        })
      configurations
  in
  Printf.printf
    "Ablation of the R-LTF implementation (g=%.1f, eps=%d, %d graphs):\n"
    granularity eps graphs;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-ablation.csv")
    [
      Fig_common.text "configuration" (fun r -> r.name);
      Fig_common.count "strict ok" "strict_ok" ~total:graphs (fun r -> r.strict_ok);
      Fig_common.count "meets T" "meets_T" ~total:graphs (fun r -> r.meets);
      Fig_common.num "stages" "stages" "%.1f" "%.3f" (fun r -> r.stages.Stats.mean);
      Fig_common.num "latency bound" "latency_bound" "%.0f" "%.3f" (fun r ->
          r.latency.Stats.mean);
      Fig_common.num "messages" "messages" "%.0f" "%.3f" (fun r ->
          r.messages.Stats.mean);
    ]
    rows;
  rows
