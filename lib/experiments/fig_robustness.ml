type sample = {
  stages : float;
  latency : float;
  messages : float;
  meets : bool;
}

let eps = 1

(* Every setting sees the same rep seeds [seed + stride · rep]; a setting
   turns the rep's stream into its instance.  A row's key is its
   (setting, algorithm). *)
let sweep ~jobs ~seed ~stride ~graphs settings =
  let throughput = Paper_workload.throughput ~eps in
  let opts = Scheduler.(default |> with_mode Best_effort) in
  let algos = [ Ltf.algo; Rltf.algo ] in
  let measure rep =
    List.concat_map
      (fun (setting, instance) ->
        let dag, platform = instance (Rng.create ~seed:(seed + (stride * rep))) in
        let prob = Types.problem ~dag ~platform ~eps ~throughput in
        List.filter_map
          (fun (module A : Scheduler.Algo) ->
            match A.run ~opts prob with
            | Error _ -> None
            | Ok m ->
                Some
                  ( (setting, A.name),
                    {
                      stages = float_of_int (Metrics.stage_depth m);
                      latency = Metrics.latency_bound m ~throughput;
                      messages = float_of_int (Mapping.n_messages m);
                      meets = Metrics.meets_throughput m ~throughput;
                    } ))
          algos)
      settings
  in
  let keys =
    List.concat_map
      (fun (setting, _) ->
        List.map (fun (module A : Scheduler.Algo) -> (setting, A.name)) algos)
      settings
  in
  Fig_common.graph_pass ~jobs ~graphs keys measure
  |> Fig_common.measured [ (fun s -> s.stages) ]
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The table of one sweep: [setting] heads the first column and [extra]
   columns go before the throughput count. *)
let report ~path ~title ~setting ~graphs ~extra rows =
  Printf.printf "%s (eps=%d, g=1.0, %d graphs/%s):\n" title eps graphs setting;
  Fig_common.table ~path
    ([
       Fig_common.text setting (fun ((s, _), _) -> s);
       Fig_common.text "algorithm" (fun ((_, a), _) -> a);
       Fig_common.mean "stages" "stages" "%.1f" "%.3f" (fun s -> s.stages);
       Fig_common.mean "latency" "latency" "%.0f" "%.3f" (fun s -> s.latency);
     ]
    @ extra
    @ [ Fig_common.hits "meets T" "meets_T" ~total:graphs (fun s -> s.meets) ])
    rows;
  rows

let families ?(out_dir = "results") ?(seed = 2009) ?(graphs = 12) ~jobs () =
  let family f rng =
    let spec = Spec.paper { Paper_workload.default_spec with Paper_workload.family = f } in
    let inst = Spec.generate spec ~rng ~granularity:1.0 () in
    (inst.Paper_workload.dag, inst.Paper_workload.plat)
  in
  sweep ~jobs ~seed ~stride:4409 ~graphs
    [
      ("layered", family Paper_workload.Layered);
      ("fan-in-out", family Paper_workload.Fan_in_out);
      ("series-parallel", family Paper_workload.Series_parallel);
      ("stream-chain", family Paper_workload.Stream_chain);
    ]
  |> report
       ~path:(Filename.concat out_dir "fig-families.csv")
       ~title:"Graph-family robustness" ~setting:"family" ~graphs ~extra:[]

(* Three 16-processor platforms with the same total off-diagonal
   bandwidth, so differences come from structure, not capacity.  The
   rep's stream only feeds the graph, so every topology sees the same
   workflows. *)
let topology ?(out_dir = "results") ?(seed = 2009) ?(graphs = 12) ~jobs () =
  let on plat rng =
    let tasks = Rng.uniform_int rng ~lo:40 ~hi:80 in
    let dag = Random_dag.layered ~rng ~tasks () in
    (Calibrate.calibrated dag plat ~granularity:1.0, plat)
  in
  sweep ~jobs ~seed ~stride:8191 ~graphs
    [
      ( "uniform",
        on (Platform.homogeneous ~name:"uniform16" ~m:16 ~speed:1.0 ~bandwidth:1.0 ()) );
      ( "clustered",
        on
          (Topologies.clustered ~name:"clustered16" ~clusters:4 ~per_cluster:4
             ~speed:1.0 ~intra_bandwidth:3.4 ~inter_bandwidth:0.4 ()) );
      ( "star",
        on
          (Topologies.star ~name:"star16" ~m:16 ~speed:1.0 ~hub_bandwidth:3.0
             ~leaf_bandwidth:0.571 ()) );
    ]
  |> report
       ~path:(Filename.concat out_dir "fig-topology.csv")
       ~title:"Topology sensitivity" ~setting:"topology" ~graphs
       ~extra:
         [
           Fig_common.mean "messages" "messages" "%.0f" "%.3f" (fun s ->
               s.messages);
         ]
