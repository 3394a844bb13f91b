let path_exec dag path =
  List.fold_left (fun acc task -> acc +. Dag.exec dag task) 0.0 path

(* Cap on the enumerated paths; tasks on no enumerated path join their
   heaviest-volume neighbour's cluster. *)
let max_paths = 2000

let run dag plat ~throughput =
  let cap = Hary.load_cap plat ~throughput in
  let clusters = Clustering.create dag in
  let assigned = Array.make (Dag.size dag) false in
  let paths =
    Paths.all_paths ~limit:max_paths dag
    |> List.map (fun p -> (path_exec dag p, p))
    |> List.sort (fun (a, pa) (b, pb) ->
           match compare b a with 0 -> compare pa pb | c -> c)
  in
  (* Walk each path, growing a sub-path cluster while unassigned tasks keep
     fitting in one period. *)
  List.iter
    (fun (_, path) ->
      let anchor = ref None in
      List.iter
        (fun task ->
          if assigned.(task) then anchor := None
          else begin
            (match !anchor with
            | Some prev
              when Clustering.load clusters prev +. Dag.exec dag task <= cap ->
                Clustering.merge clusters prev task
            | _ -> ());
            assigned.(task) <- true;
            anchor := Some task
          end)
        path)
    paths;
  (* Tasks on no enumerated path: join the heaviest-volume neighbour when
     the load allows. *)
  Dag.iter_tasks dag (fun task ->
      if not assigned.(task) then begin
        let neighbours =
          List.map (fun (p, vol) -> (vol, p)) (Dag.preds dag task)
          @ List.map (fun (s, vol) -> (vol, s)) (Dag.succs dag task)
          |> List.sort (fun (a, pa) (b, pb) ->
                 match compare b a with 0 -> compare pa pb | c -> c)
        in
        let rec attach = function
          | [] -> ()
          | (_, other) :: rest ->
              if not (Clustering.merge_if clusters ~max_load:cap task other)
              then attach rest
        in
        attach neighbours;
        assigned.(task) <- true
      end);
  Clustering.to_assignment clusters plat

let mapping dag plat ~throughput =
  Assignment.to_mapping ~throughput dag plat (run dag plat ~throughput)
