type schedule = {
  assignment : Assignment.t;
  start : float array;
  finish : float array;
  makespan : float;
}

(* Insertion-based earliest start on a processor's committed slots. *)
let earliest_slot slots ~ready ~duration =
  Timeline.earliest_fit slots ~ready ~duration

let run dag plat =
  let n = Dag.size dag in
  let rank = Levels.bottom dag (Metrics.paper_weights dag plat) in
  let order =
    List.init n Fun.id
    |> List.sort (fun a b ->
           match compare rank.(b) rank.(a) with 0 -> compare a b | c -> c)
  in
  (* Upward-rank order is always a valid topological order because the
     bottom level of a predecessor strictly exceeds its successors'. *)
  let assignment = Array.make n 0 in
  let start = Array.make n 0.0 and finish = Array.make n 0.0 in
  let slots = Array.init (Platform.size plat) (fun _ -> Timeline.create ()) in
  List.iter
    (fun task ->
      let best = ref None in
      List.iter
        (fun proc ->
          let ready =
            List.fold_left
              (fun acc (pred, vol) ->
                let arrival =
                  finish.(pred)
                  +. Platform.comm_time plat assignment.(pred) proc vol
                in
                Float.max acc arrival)
              0.0 (Dag.preds dag task)
          in
          let duration = Platform.exec_time plat proc (Dag.exec dag task) in
          let est = earliest_slot slots.(proc) ~ready ~duration in
          let eft = est +. duration in
          match !best with
          | Some (best_eft, _, _) when best_eft <= eft -> ()
          | _ -> best := Some (eft, est, proc))
        (Platform.procs plat);
      match !best with
      | None -> assert false
      | Some (eft, est, proc) ->
          assignment.(task) <- proc;
          start.(task) <- est;
          finish.(task) <- eft;
          Timeline.insert slots.(proc) ~start:est ~duration:(eft -. est))
    order;
  let makespan = Array.fold_left Float.max 0.0 finish in
  { assignment; start; finish; makespan }

let mapping ?throughput dag plat =
  Assignment.to_mapping ?throughput dag plat (run dag plat).assignment
