type t = {
  stage : int array array; (* [task].(copy); 0 = not placed *)
  depth : int;
}

let compute m =
  let dag = Mapping.dag m in
  let copies = Mapping.n_copies m in
  let stage = Array.init (Dag.size dag) (fun _ -> Array.make copies 0) in
  let depth = ref 0 in
  (* Replicas are staged in topological task order: every source replica
     belongs to a predecessor task, hence is already staged. *)
  Array.iter
    (fun task ->
      for copy = 0 to copies - 1 do
        match Mapping.replica m task copy with
        | None -> ()
        | Some r ->
            let s =
              List.fold_left
                (fun acc (_, ids) ->
                  List.fold_left
                    (fun acc (src : Replica.id) ->
                      let src_r = Mapping.replica_exn m src.task src.copy in
                      let eta = if src_r.proc = r.proc then 0 else 1 in
                      max acc (stage.(src.task).(src.copy) + eta))
                    acc ids)
                1 r.sources
            in
            stage.(task).(copy) <- s;
            if s > !depth then depth := s
      done)
    (Topo.order dag);
  { stage; depth = !depth }

let of_replica t (id : Replica.id) =
  let s = t.stage.(id.task).(id.copy) in
  if s = 0 then
    invalid_arg
      (Printf.sprintf "Stages.of_replica: %s not placed" (Replica.id_to_string id));
  s

let depth t = t.depth
