type row = {
  name : string;
  mean_stages : float;
  mean_ratio : float;
  optimal_hits : int;
}

let heuristics ~throughput =
  [
    ( "LTF (eps=0)",
      fun dag plat ->
        Result.to_option
          (Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort)
             (Types.problem ~dag ~platform:plat ~eps:0 ~throughput)) );
    ( "R-LTF (eps=0)",
      fun dag plat ->
        Result.to_option
          (Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort)
             (Types.problem ~dag ~platform:plat ~eps:0 ~throughput)) );
    ("HEFT [9]", fun dag plat -> Some (Heft.mapping ~throughput dag plat));
    ("WMSH [10]", fun dag plat -> Some (Wmsh.mapping dag plat ~throughput));
    ("Hary-Ozguner [4]", fun dag plat -> Some (Hary.mapping dag plat ~throughput));
  ]

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 15) ?(tasks = 9) () =
  let m = 4 in
  let plat = Platform.homogeneous ~name:"optgap" ~m ~speed:1.0 ~bandwidth:1.0 () in
  (* a period that makes placement non-trivial: roughly half the work
     must leave the first processor *)
  let throughput = float_of_int m /. (2.0 *. float_of_int tasks) in
  (* Per usable instance, each heuristic's (stages / optimal, stages,
     hit); instances whose exact search exceeds the node limit are
     skipped, up to [4 · graphs] draws. *)
  let per_rep = ref [] and usable = ref 0 and rep = ref 0 in
  while !usable < graphs && !rep < graphs * 4 do
    incr rep;
    let rng = Rng.create ~seed:(seed + (1009 * !rep)) in
    let dag = Random_dag.layered ~rng ~tasks () in
    let dag = Calibrate.calibrated dag plat ~granularity:1.0 in
    match Optimal.minimum_stages ~dag ~platform:plat ~throughput () with
    | None -> ()
    | Some exact ->
        let optimal = exact.Optimal.stages in
        incr usable;
        per_rep :=
          List.filter_map
            (fun (name, algo) ->
              Option.map
                (fun mapping ->
                  let s = Metrics.stage_depth mapping in
                  ( name,
                    ( float_of_int s /. float_of_int (max 1 optimal),
                      float_of_int s,
                      s = optimal ) ))
                (algo dag plat))
            (heuristics ~throughput)
          :: !per_rep
  done;
  let per_rep = List.rev !per_rep and usable = !usable in
  let rows =
    List.filter_map
      (fun (name, _) ->
        match Fig_common.per_label name per_rep with
        | [] -> None
        | mine ->
            Some
              {
                name;
                mean_stages = Stats.mean (List.map (fun (_, s, _) -> s) mine);
                mean_ratio = Stats.mean (List.map (fun (r, _, _) -> r) mine);
                optimal_hits = List.length (List.filter (fun (_, _, h) -> h) mine);
              })
      (heuristics ~throughput:1.0)
  in
  Printf.printf
    "Optimality gap vs exact branch-and-bound (%d instances, %d tasks, m=%d):\n"
    usable tasks m;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-optgap.csv")
    [
      Fig_common.text "algorithm" (fun r -> r.name);
      Fig_common.num "mean stages" "mean_stages" "%.2f" "%.3f" (fun r ->
          r.mean_stages);
      Fig_common.num "stages / optimal" "mean_ratio" "%.2f" "%.3f" (fun r ->
          r.mean_ratio);
      Fig_common.count "optimal hits" "optimal_hits" ~total:usable (fun r ->
          r.optimal_hits);
    ]
    rows;
  rows
