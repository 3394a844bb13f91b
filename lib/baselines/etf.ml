type schedule = {
  assignment : Assignment.t;
  start : float array;
  finish : float array;
  makespan : float;
}

let run dag plat =
  let n = Dag.size dag in
  let priority =
    Levels.bottom dag (Metrics.paper_weights dag plat)
  in
  let assignment = Array.make n 0 in
  let start = Array.make n 0.0 and finish = Array.make n 0.0 in
  let proc_free = Array.make (Platform.size plat) 0.0 in
  let pending = Array.init n (Dag.in_degree dag) in
  let ready = ref (List.filter (fun t -> pending.(t) = 0) (List.init n Fun.id)) in
  let scheduled = Array.make n false in
  for _ = 1 to n do
    (* Evaluate every (ready task, processor) pair. *)
    let best = ref None in
    List.iter
      (fun task ->
        List.iter
          (fun proc ->
            let arrival =
              List.fold_left
                (fun acc (pred, vol) ->
                  Float.max acc
                    (finish.(pred)
                    +. Platform.comm_time plat assignment.(pred) proc vol))
                0.0 (Dag.preds dag task)
            in
            let est = Float.max arrival proc_free.(proc) in
            let better =
              match !best with
              | None -> true
              | Some (b_est, b_pri, b_task, b_proc) ->
                  est < b_est
                  || (est = b_est
                      && (priority.(task) > b_pri
                         || (priority.(task) = b_pri
                            && (task, proc) < (b_task, b_proc))))
            in
            if better then best := Some (est, priority.(task), task, proc))
          (Platform.procs plat))
      !ready;
    match !best with
    | None -> assert false
    | Some (est, _, task, proc) ->
        let duration = Platform.exec_time plat proc (Dag.exec dag task) in
        assignment.(task) <- proc;
        start.(task) <- est;
        finish.(task) <- est +. duration;
        proc_free.(proc) <- est +. duration;
        scheduled.(task) <- true;
        ready := List.filter (fun t -> t <> task) !ready;
        List.iter
          (fun (succ, _) ->
            pending.(succ) <- pending.(succ) - 1;
            if pending.(succ) = 0 then ready := succ :: !ready)
          (Dag.succs dag task)
  done;
  { assignment; start; finish; makespan = Array.fold_left Float.max 0.0 finish }

let mapping ?throughput dag plat =
  Assignment.to_mapping ?throughput dag plat (run dag plat).assignment
