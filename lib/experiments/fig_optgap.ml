type sample = { stages : float; ratio : float; optimal : bool }

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

(* Instance size: [tasks]-task layered graphs on [m] homogeneous
   processors, small enough for the exact search. *)
let tasks = 9
let m = 4

let run ?(out_dir = "results") ?(seed = 2009) ?(graphs = 15) () =
  let plat = Platform.homogeneous ~name:"optgap" ~m ~speed:1.0 ~bandwidth:1.0 () in
  (* a period that makes placement non-trivial: roughly half the work
     must leave the first processor *)
  let throughput = float_of_int m /. (2.0 *. float_of_int tasks) in
  (* Per usable instance, each heuristic's sample; instances whose exact
     search exceeds the node limit are skipped, up to [4 · graphs]
     draws. *)
  let per_rep = ref [] and usable = ref 0 and rep = ref 0 in
  while !usable < graphs && !rep < graphs * 4 do
    incr rep;
    let rng = Rng.create ~seed:(seed + (1009 * !rep)) in
    let dag = Random_dag.layered ~rng ~tasks () in
    let dag = Calibrate.calibrated dag plat ~granularity:1.0 in
    match Optimal.minimum_stages ~dag ~platform:plat ~throughput with
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
                    {
                      stages = float_of_int s;
                      ratio = float_of_int s /. float_of_int (max 1 optimal);
                      optimal = s = optimal;
                    } ))
                (algo dag plat))
            (heuristics ~throughput)
          :: !per_rep
  done;
  let per_rep = List.rev !per_rep and usable = !usable in
  let stages s = s.stages in
  let rows =
    List.map
      (fun (name, _) -> (name, Fig_common.per_label name per_rep))
      (heuristics ~throughput:1.0)
    |> Fig_common.measured [ stages ]
  in
  Printf.printf
    "Optimality gap vs exact branch-and-bound (%d instances, %d tasks, m=%d):\n"
    usable tasks m;
  Fig_common.table
    ~path:(Filename.concat out_dir "fig-optgap.csv")
    [
      Fig_common.text "algorithm" fst;
      Fig_common.mean "mean stages" "mean_stages" "%.2f" "%.3f" stages;
      Fig_common.mean "stages / optimal" "mean_ratio" "%.2f" "%.3f" (fun s ->
          s.ratio);
      Fig_common.hits "optimal hits" "optimal_hits" ~total:usable (fun s ->
          s.optimal);
    ]
    rows;
  rows
