type error =
  | Missing_replica of Replica.id
  | Colocated_replicas of Dag.task * Platform.proc
  | Bad_source of Replica.id * string
  | Throughput_violated of Platform.proc * float
  | Not_fault_tolerant of Platform.proc list

let pp_error ppf = function
  | Missing_replica id ->
      Format.fprintf ppf "replica %a is not placed" Replica.pp_id id
  | Colocated_replicas (t, p) ->
      Format.fprintf ppf "two replicas of t%d share processor P%d" t p
  | Bad_source (id, msg) ->
      Format.fprintf ppf "bad source set for %a: %s" Replica.pp_id id msg
  | Throughput_violated (p, delta) ->
      Format.fprintf ppf "cycle time %g of P%d exceeds the period" delta p
  | Not_fault_tolerant failed ->
      Format.fprintf ppf "failure of {%s} loses an exit task"
        (String.concat ", " (List.map (Printf.sprintf "P%d") failed))

let error_to_string e = Format.asprintf "%a" pp_error e

let structure m =
  let dag = Mapping.dag m in
  let errors = ref [] in
  let report e = errors := e :: !errors in
  Dag.iter_tasks dag (fun task ->
      let placed = ref [] in
      for copy = 0 to Mapping.eps m do
        match Mapping.replica m task copy with
        | None -> report (Missing_replica { Replica.task; copy })
        | Some r ->
            if List.mem r.Replica.proc !placed then
              report (Colocated_replicas (task, r.Replica.proc))
            else placed := r.Replica.proc :: !placed;
            (* Source sets: cover exactly the predecessors, with placed
               replicas of the right task. *)
            let preds = List.map fst (Dag.preds dag task) in
            let covered = List.map fst r.Replica.sources in
            if List.sort compare covered <> List.sort compare preds then
              report (Bad_source (r.Replica.id, "does not cover the predecessors"))
            else
              List.iter
                (fun (pred, ids) ->
                  if ids = [] then
                    report (Bad_source (r.Replica.id, "empty source list"))
                  else
                    List.iter
                      (fun (src : Replica.id) ->
                        if src.task <> pred then
                          report
                            (Bad_source (r.Replica.id, "source of the wrong task"))
                        else if Mapping.replica m src.task src.copy = None then
                          report (Bad_source (r.Replica.id, "unplaced source")))
                      ids)
                r.Replica.sources
      done);
  List.rev !errors

let throughput m ~throughput =
  let loads = Loads.of_mapping m in
  let budget = 1.0 /. throughput in
  let slack = 1.0 +. 1e-9 in
  let errors = ref [] in
  for u = Platform.size (Mapping.platform m) - 1 downto 0 do
    let delta = Loads.cycle_time loads u in
    if delta > budget *. slack then errors := Throughput_violated (u, delta) :: !errors
  done;
  !errors

let survives m ~failed =
  let dag = Mapping.dag m in
  let copies = Mapping.n_copies m in
  let dead_proc = Array.make (Platform.size (Mapping.platform m)) false in
  List.iter (fun p -> dead_proc.(p) <- true) failed;
  let alive = Array.init (Dag.size dag) (fun _ -> Array.make copies false) in
  (* Propagate liveness in topological order: a replica is alive iff its
     processor survives and every predecessor task has at least one alive
     replica among this replica's sources. *)
  Array.iter
    (fun task ->
      for copy = 0 to copies - 1 do
        match Mapping.replica m task copy with
        | None -> ()
        | Some r ->
            if not dead_proc.(r.Replica.proc) then begin
              let fed =
                List.for_all
                  (fun (_, ids) ->
                    List.exists
                      (fun (src : Replica.id) -> alive.(src.task).(src.copy))
                      ids)
                  r.Replica.sources
              in
              alive.(task).(copy) <- fed
            end
      done)
    (Topo.order dag);
  List.for_all
    (fun exit_task -> Array.exists Fun.id alive.(exit_task))
    (Dag.exits dag)

let fault_tolerance ?max_failures m =
  let eps = match max_failures with Some k -> k | None -> Mapping.eps m in
  let m_procs = Platform.size (Mapping.platform m) in
  let errors = ref [] in
  (* Failure sets of size exactly [eps]; smaller sets are dominated
     (failing fewer processors only helps). *)
  if eps > 0 && Dag.size (Mapping.dag m) > 0 then
    Subsets.iter ~procs:m_procs ~size:(min eps m_procs) (fun _ chosen ->
        let failed = Array.to_list chosen in
        if not (survives m ~failed) then
          errors := Not_fault_tolerant failed :: !errors);
  List.rev !errors

let all m ~throughput:t =
  match structure m with
  | _ :: _ as errors -> errors
  | [] -> throughput m ~throughput:t @ fault_tolerance m
