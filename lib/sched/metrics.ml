let granularity dag plat =
  let comp =
    Dag.fold_tasks dag ~init:0.0 ~f:(fun acc t ->
        acc +. Platform.slowest_exec_time plat (Dag.exec dag t))
  in
  let comm =
    Dag.fold_edges dag ~init:0.0 ~f:(fun acc _ _ vol ->
        acc +. Platform.slowest_comm_time plat vol)
  in
  if comm = 0.0 then infinity else comp /. comm

let paper_weights dag plat =
  let inv_speed = Platform.mean_inverse_speed plat
  and unit_delay = Platform.mean_unit_delay plat in
  {
    Levels.node = (fun t -> Dag.exec dag t *. inv_speed);
    Levels.edge = (fun _ _ vol -> vol *. unit_delay);
  }

let achieved_throughput m =
  let delta = Loads.max_cycle_time (Loads.of_mapping m) in
  if delta = 0.0 then infinity else 1.0 /. delta

let period m =
  let t = achieved_throughput m in
  if t = infinity then 0.0 else 1.0 /. t

let tolerance = 1e-9

let meets_throughput ?loads m ~throughput =
  let loads = match loads with Some l -> l | None -> Loads.of_mapping m in
  let budget = 1.0 /. throughput in
  let slack = 1.0 +. tolerance in
  let ok = ref true in
  Array.iteri
    (fun u _ ->
      if Loads.cycle_time loads u > budget *. slack then ok := false)
    loads.Loads.sigma;
  !ok

let stage_depth m = Stages.depth (Stages.compute m)

let latency_of_depth ~throughput s = float_of_int ((2 * s) - 1) /. throughput
let latency_bound m ~throughput = latency_of_depth ~throughput (stage_depth m)
