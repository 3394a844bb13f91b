type t = { sigma : float array; c_in : float array; c_out : float array }

let create ~n_procs =
  Obs.touch "sched.loads.full_recomputes";
  Obs.touch "sched.loads.incremental_updates";
  {
    sigma = Array.make n_procs 0.0;
    c_in = Array.make n_procs 0.0;
    c_out = Array.make n_procs 0.0;
  }

let add_exec l u time =
  Obs.incr "sched.loads.incremental_updates";
  l.sigma.(u) <- l.sigma.(u) +. time

let add_comm l ~src ~dst time =
  l.c_in.(dst) <- l.c_in.(dst) +. time;
  l.c_out.(src) <- l.c_out.(src) +. time

(* Float addition is order-sensitive and schedules are pinned
   bit-identical: per replica Σ first (written directly, so the full
   recompute does not count as incremental updates), then per predecessor
   and per off-processor source, Cᴵ at the replica before Cᴼ at the
   source. *)
let of_mapping m =
  Obs.incr "sched.loads.full_recomputes";
  let plat = Mapping.platform m and dag = Mapping.dag m in
  let l = create ~n_procs:(Platform.size plat) in
  Mapping.iter m (fun (r : Replica.t) ->
      l.sigma.(r.proc) <-
        l.sigma.(r.proc) +. Platform.exec_time plat r.proc (Dag.exec dag r.id.task);
      List.iter
        (fun (pred, ids) ->
          let vol = Dag.volume dag pred r.id.task in
          List.iter
            (fun (src : Replica.id) ->
              let sp = (Mapping.replica_exn m src.task src.copy).Replica.proc in
              if sp <> r.proc then
                add_comm l ~src:sp ~dst:r.proc
                  (Platform.comm_time plat sp r.proc vol))
            ids)
        r.sources);
  l

let cycle_time l u = Float.max l.sigma.(u) (Float.max l.c_in.(u) l.c_out.(u))

let max_cycle_time l =
  let best = ref 0.0 in
  for u = 0 to Array.length l.sigma - 1 do
    best := Float.max !best (cycle_time l u)
  done;
  !best

let utilization l ~throughput u = throughput *. l.sigma.(u)
