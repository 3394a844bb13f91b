type result = {
  stages : int;
  mapping : Mapping.t;
}

exception Node_limit

(* Search nodes explored before giving up without an optimality proof. *)
let node_limit = 2_000_000

let minimum_stages ~dag ~platform ~throughput =
  let n = Dag.size dag in
  if n > 24 then invalid_arg "Optimal.minimum_stages: more than 24 tasks";
  let m = Platform.size platform in
  let delta = 1.0 /. throughput in
  let slack = delta *. (1.0 +. 1e-9) in
  let order = Topo.order dag in
  (* Symmetry breaking is sound only when processors are interchangeable. *)
  let homogeneous =
    let s0 = Platform.speed platform 0 in
    let speeds_equal =
      List.for_all (fun u -> Platform.speed platform u = s0) (Platform.procs platform)
    in
    let bw0 = if m > 1 then Platform.bandwidth platform 0 1 else 1.0 in
    speeds_equal
    && List.for_all
         (fun u ->
           List.for_all
             (fun v -> u = v || Platform.bandwidth platform u v = bw0)
             (Platform.procs platform))
         (Platform.procs platform)
  in
  let assignment = Array.make n (-1) in
  let stage = Array.make n 0 in
  let sigma = Array.make m 0.0 in
  let c_in = Array.make m 0.0 and c_out = Array.make m 0.0 in
  let best_stages = ref max_int in
  let best_assignment = Array.make n 0 in
  let explored = ref 0 in
  let rec search i partial_s used =
    incr explored;
    if !explored > node_limit then raise Node_limit;
    if partial_s >= !best_stages then () (* can only get worse *)
    else if i = n then begin
      best_stages := partial_s;
      Array.blit assignment 0 best_assignment 0 n
    end
    else begin
      let task = order.(i) in
      let preds = Dag.preds dag task in
      let proc_bound = if homogeneous then min (m - 1) (used + 1) else m - 1 in
      for p = 0 to proc_bound do
        (* incremental feasibility + stage *)
        let exec = Platform.exec_time platform p (Dag.exec dag task) in
        if sigma.(p) +. exec <= slack then begin
          let s =
            List.fold_left
              (fun acc (q, _) ->
                let eta = if assignment.(q) = p then 0 else 1 in
                max acc (stage.(q) + eta))
              1 preds
          in
          if max s partial_s < !best_stages then begin
            (* charge the transfers, checking the port budgets *)
            let feasible = ref true in
            let charged = ref [] in
            List.iter
              (fun (q, vol) ->
                if !feasible && assignment.(q) <> p then begin
                  let time = Platform.comm_time platform assignment.(q) p vol in
                  if
                    c_out.(assignment.(q)) +. time <= slack
                    && c_in.(p) +. time <= slack
                  then begin
                    c_out.(assignment.(q)) <- c_out.(assignment.(q)) +. time;
                    c_in.(p) <- c_in.(p) +. time;
                    charged := (assignment.(q), time) :: !charged
                  end
                  else feasible := false
                end)
              preds;
            if !feasible then begin
              sigma.(p) <- sigma.(p) +. exec;
              assignment.(task) <- p;
              stage.(task) <- s;
              search (i + 1) (max s partial_s) (max used p);
              assignment.(task) <- -1;
              stage.(task) <- 0;
              sigma.(p) <- sigma.(p) -. exec
            end;
            List.iter
              (fun (q_proc, time) ->
                c_out.(q_proc) <- c_out.(q_proc) -. time;
                c_in.(p) <- c_in.(p) -. time)
              !charged
          end
        end
      done
    end
  in
  match if n = 0 then Some 0 else None with
  | Some _ ->
      (* empty graph: trivially zero stages *)
      Some { stages = 0; mapping = Mapping.create ~dag ~platform ~eps:0 }
  | None -> (
      match search 0 0 (-1) with
      | () ->
          if !best_stages = max_int then None
          else begin
            let mapping =
              Source_derivation.derive ~throughput ~dag ~platform ~eps:0
                ~proc_of:(fun task _ -> best_assignment.(task))
                ()
            in
            Some { stages = !best_stages; mapping }
          end
      | exception Node_limit -> None)
