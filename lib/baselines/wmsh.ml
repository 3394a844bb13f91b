let run dag plat ~throughput =
  let cap = Hary.load_cap plat ~throughput in
  let weights = Metrics.paper_weights dag plat in
  let clusters = Clustering.create dag in
  (* Phase 1: unlimited-processor clustering — zero the heaviest edges
     while the throughput cap holds. *)
  let edges =
    Dag.fold_edges dag ~init:[] ~f:(fun acc src dst vol -> (vol, src, dst) :: acc)
    |> List.sort (fun (va, sa, da) (vb, sb, db) ->
           match compare vb va with 0 -> compare (sa, da) (sb, db) | c -> c)
  in
  List.iter
    (fun (_, src, dst) -> ignore (Clustering.merge_if clusters ~max_load:cap src dst))
    edges;
  (* Phase 2: processor reduction — while more clusters than processors,
     merge the two lightest clusters that still fit together. *)
  let m = Platform.size plat in
  let continue_reduction = ref true in
  while Clustering.n_clusters clusters > m && !continue_reduction do
    let groups = Clustering.members clusters in
    let by_load =
      Array.to_list groups
      |> List.filter (fun tasks -> tasks <> [])
      |> List.map (fun tasks ->
             ( List.fold_left (fun acc t -> acc +. Dag.exec dag t) 0.0 tasks,
               List.hd tasks ))
      |> List.sort compare
    in
    match by_load with
    | (la, a) :: (lb, b) :: _ when la +. lb <= cap -> Clustering.merge clusters a b
    | (_, a) :: (_, b) :: _ ->
        (* nothing fits: merge the two lightest anyway so placement can
           proceed (the throughput requirement becomes best-effort) *)
        Clustering.merge clusters a b;
        continue_reduction := Clustering.n_clusters clusters > m
    | _ -> continue_reduction := false
  done;
  (* Phase 3: latency refinement along the critical path. *)
  let critical = Paths.critical_path dag weights in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        ignore (Clustering.merge_if clusters ~max_load:cap a b);
        walk rest
    | _ -> ()
  in
  walk critical;
  Clustering.to_assignment clusters plat

let mapping dag plat ~throughput =
  Assignment.to_mapping ~throughput dag plat (run dag plat ~throughput)
