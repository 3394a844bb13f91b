type row = {
  granularity : float;
  desired_throughput : float;
  sustained : Stats.summary;
  steady_latency : Stats.summary;
  stage_model : Stats.summary;
}

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 10) ?(items = 30) () =
  let eps = 1 in
  let throughput = Paper_workload.throughput ~eps in
  let rows =
    List.filter_map
      (fun granularity ->
        let sustained = ref [] and steady = ref [] and model = ref [] in
        for rep = 0 to graphs - 1 do
          let rng = Rng.create ~seed:(seed + (6151 * rep)) in
          let inst = Spec.generate Spec.default ~rng ~granularity () in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps ~throughput
          in
          match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
          | Error _ -> ()
          | Ok mapping ->
              (* Only schedules that analytically meet the desired period
                 are expected to sustain it. *)
              if Metrics.meets_throughput mapping ~throughput then begin
                let result =
                  Engine.simulate
                    ~config:
                      (Engine.Run.closed ~n_items:items
                         ~period:(1.0 /. throughput) ())
                    (Engine.compile mapping)
                in
                (match Engine.sustained_throughput result with
                | Some t -> sustained := t :: !sustained
                | None -> ());
                (match result.Engine.item_latency.(items - 1) with
                | Some l -> steady := l :: !steady
                | None -> ());
                match
                  Stage_latency.latency_of_plan
                    (Replica_graph.compile mapping) ~throughput
                with
                | Some l -> model := l :: !model
                | None -> ()
              end
        done;
        match
          ( Stats.summarize_opt !sustained,
            Stats.summarize_opt !steady,
            Stats.summarize_opt !model )
        with
        | Some sustained, Some steady_latency, Some stage_model ->
            Some
              {
                granularity;
                desired_throughput = throughput;
                sustained;
                steady_latency;
                stage_model;
              }
        | _ -> None)
      [ 0.4; 1.0; 1.6 ]
  in
  Printf.printf
    "Pipelined event-driven validation (eps=%d, %d items/stream):\n" eps items;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-pipeline.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" (fun r -> r.granularity);
      Fig_common.num "desired T" "desired_T" "%.4f" "%.6f" (fun r ->
          r.desired_throughput);
      Fig_common.num "sustained T" "sustained_T" "%.4f" "%.6f" (fun r ->
          r.sustained.Stats.mean);
      Fig_common.num "steady latency" "steady_latency" "%.1f" "%.3f" (fun r ->
          r.steady_latency.Stats.mean);
      Fig_common.num "stage model bound" "stage_model" "%.1f" "%.3f" (fun r ->
          r.stage_model.Stats.mean);
    ]
    rows;
  rows
