type sample = { sustained : float; steady_latency : float; stage_model : float }

(* Items streamed through each schedule, and its replication degree. *)
let items = 30
let eps = 1

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 10) ~jobs () =
  let throughput = Paper_workload.throughput ~eps in
  let granularities = [ 0.4; 1.0; 1.6 ] in
  let of_option = Option.value ~default:nan in
  let unmeasured = { sustained = nan; steady_latency = nan; stage_model = nan } in
  (* Every granularity regenerates the rep's graph from the same seed. *)
  let measure rep =
    List.map
      (fun granularity ->
        let rng = Rng.create ~seed:(seed + (6151 * rep)) in
        let inst = Spec.generate Spec.default ~rng ~granularity () in
        let prob =
          Types.problem ~dag:inst.Paper_workload.dag
            ~platform:inst.Paper_workload.plat ~eps ~throughput
        in
        ( granularity,
          match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
          (* Only schedules that analytically meet the desired period are
             expected to sustain it. *)
          | Ok mapping when Metrics.meets_throughput mapping ~throughput ->
              let result =
                Engine.simulate
                  ~config:
                    (Engine.Run.closed ~n_items:items ~period:(1.0 /. throughput) ())
                  (Engine.compile mapping)
              in
              {
                sustained = of_option (Engine.sustained_throughput result);
                steady_latency = of_option result.Engine.item_latency.(items - 1);
                stage_model =
                  of_option
                    (Stage_latency.latency_of_plan
                       (Replica_graph.compile mapping) ~throughput);
              }
          | Ok _ | Error _ -> unmeasured ))
      granularities
  in
  let sustained s = s.sustained and steady s = s.steady_latency in
  let model s = s.stage_model in
  let rows =
    Fig_common.graph_pass ~jobs ~graphs granularities measure
    |> Fig_common.measured [ sustained; steady; model ]
  in
  Printf.printf
    "Pipelined event-driven validation (eps=%d, %d items/stream):\n" eps items;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-pipeline.csv")
    [
      Fig_common.num "g" "granularity" "%.1f" "%.2f" fst;
      Fig_common.num "desired T" "desired_T" "%.4f" "%.6f" (fun _ -> throughput);
      Fig_common.mean "sustained T" "sustained_T" "%.4f" "%.6f" sustained;
      Fig_common.mean "steady latency" "steady_latency" "%.1f" "%.3f" steady;
      Fig_common.mean "stage model bound" "stage_model" "%.1f" "%.3f" model;
    ]
    rows;
  rows
