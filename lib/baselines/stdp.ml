type result = {
  assignment : Assignment.t;
  earliest : float array;
  latest : float array;
  n_stages : int;
}

let run dag plat ~throughput =
  let cap = Hary.load_cap plat ~throughput in
  let weights = Metrics.paper_weights dag plat in
  (* Earliest time = top level; latest = critical path length - bottom
     level (so latest - earliest is the task's slack). *)
  let earliest = Levels.top dag weights in
  let bottom = Levels.bottom dag weights in
  let cp = Levels.critical_path_length dag weights in
  let latest = Array.mapi (fun t _ -> cp -. bottom.(t)) earliest in
  let clusters = Clustering.create dag in
  (* Pull the critical path into one cluster first (the paper's
     duplication step targets exactly these tasks). *)
  let critical = Paths.critical_path dag weights in
  (match critical with
  | [] -> ()
  | first :: rest ->
      ignore
        (List.fold_left
           (fun prev task ->
             ignore (Clustering.merge_if clusters ~max_load:cap prev task);
             task)
           first rest));
  (* Then zero edges by decreasing volume when the merged cluster keeps a
     small earliest-time span (tasks far apart in time gain nothing from
     sharing a processor) and fits the load cap. *)
  let span = 1.0 /. throughput in
  let edges =
    Dag.fold_edges dag ~init:[] ~f:(fun acc src dst vol -> (vol, src, dst) :: acc)
    |> List.sort (fun (va, sa, da) (vb, sb, db) ->
           match compare vb va with 0 -> compare (sa, da) (sb, db) | c -> c)
  in
  List.iter
    (fun (_, src, dst) ->
      if Float.abs (earliest.(dst) -. earliest.(src)) <= span then
        ignore (Clustering.merge_if clusters ~max_load:cap src dst))
    edges;
  let assignment = Clustering.to_assignment clusters plat in
  (* Third traversal: count stages as processor changes along the earliest
     topological order. *)
  let stage = Array.make (Dag.size dag) 1 in
  let n_stages = ref 1 in
  Array.iter
    (fun task ->
      List.iter
        (fun (pred, _) ->
          let eta = if assignment.(pred) = assignment.(task) then 0 else 1 in
          if stage.(pred) + eta > stage.(task) then
            stage.(task) <- stage.(pred) + eta)
        (Dag.preds dag task);
      if stage.(task) > !n_stages then n_stages := stage.(task))
    (Topo.order dag);
  { assignment; earliest; latest; n_stages = !n_stages }

let mapping dag plat ~throughput =
  Assignment.to_mapping ~throughput dag plat (run dag plat ~throughput).assignment
