type sample = {
  strict_ok : bool;
  meets : bool;
  stages : float;
  latency : float;
  messages : float;
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

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 20) ~jobs () =
  let granularity = 1.0 and eps = 1 in
  let throughput = Paper_workload.throughput ~eps in
  (* One graph serves all six configurations. *)
  let measure rep =
    let _, inst = Fig_common.rep_instance Spec.default ~seed ~rep in
    let prob =
      Types.problem ~dag:inst.Paper_workload.dag
        ~platform:inst.Paper_workload.plat ~eps ~throughput
    in
    List.map
      (fun (name, opts) ->
        let strict_ok = Result.is_ok (Rltf.schedule ~opts prob) in
        ( name,
          match
            Rltf.schedule ~opts:Scheduler.(opts |> with_mode Best_effort) prob
          with
          | Error _ ->
              { strict_ok; meets = false; stages = nan; latency = nan; messages = nan }
          | Ok m ->
              {
                strict_ok;
                meets = Metrics.meets_throughput m ~throughput;
                stages = float_of_int (Metrics.stage_depth m);
                latency = Metrics.latency_bound m ~throughput;
                messages = float_of_int (Mapping.n_messages m);
              } ))
      configurations
  in
  let rows =
    Fig_common.graph_pass ~jobs ~graphs (List.map fst configurations) measure
  in
  Printf.printf
    "Ablation of the R-LTF implementation (g=%.1f, eps=%d, %d graphs):\n"
    granularity eps graphs;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-ablation.csv")
    [
      Fig_common.text "configuration" fst;
      Fig_common.hits "strict ok" "strict_ok" ~total:graphs (fun s -> s.strict_ok);
      Fig_common.hits "meets T" "meets_T" ~total:graphs (fun s -> s.meets);
      Fig_common.mean "stages" "stages" "%.1f" "%.3f" (fun s -> s.stages);
      Fig_common.mean "latency bound" "latency_bound" "%.0f" "%.3f" (fun s ->
          s.latency);
      Fig_common.mean "messages" "messages" "%.0f" "%.3f" (fun s -> s.messages);
    ]
    rows;
  rows
