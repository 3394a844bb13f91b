let critical_path g w =
  if Dag.size g = 0 then []
  else begin
    let bl = Levels.bottom g w in
    let best_of candidates =
      List.fold_left
        (fun acc t ->
          match acc with
          | Some b when bl.(b) >= bl.(t) -> acc
          | _ -> Some t)
        None candidates
    in
    match best_of (Dag.entries g) with
    | None -> []
    | Some entry ->
        (* Follow, from the best entry, the successor realizing the
           recurrence bl t = node t + max (edge + bl succ). *)
        let rec walk t acc =
          let next =
            List.fold_left
              (fun acc' (s, vol) ->
                let len = w.Levels.edge t s vol +. bl.(s) in
                match acc' with
                | Some (_, best) when best >= len -> acc'
                | _ -> Some (s, len))
              None (Dag.succs g t)
          in
          match next with
          | None -> List.rev (t :: acc)
          | Some (s, _) -> walk s (t :: acc)
        in
        walk entry []
  end

let all_paths ?(limit = 10_000) g =
  let found = ref [] and n_found = ref 0 in
  let rec extend t prefix =
    if !n_found < limit then
      match Dag.succs g t with
      | [] ->
          found := List.rev (t :: prefix) :: !found;
          incr n_found
      | succs -> List.iter (fun (s, _) -> extend s (t :: prefix)) succs
  in
  List.iter (fun entry -> extend entry []) (Dag.entries g);
  List.rev !found
