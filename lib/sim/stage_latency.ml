(* The stage model compiled into dense arrays: per replica (dense id
   rid = task * copies + copy) its processor, and its source sets as CSR
   over (source rid, hop cost eta).  Built once per mapping, replayed per
   failure draw — the per-draw work is a single topological sweep over
   int arrays. *)
type plan = {
  l_mapping : Mapping.t;
  l_tasks : int;
  l_copies : int;
  l_rids : int;
  l_procs : int;
  l_topo : int array;
  l_placed : bool array;  (* per rid: the mapping has this replica *)
  l_proc : int array;  (* per rid *)
  l_grp_off : int array;  (* rid -> groups, length l_rids + 1 *)
  l_src_off : int array;  (* group -> sources, length n_groups + 1 *)
  l_src : int array;  (* source rid *)
  l_eta : int array;  (* 0 when co-located with the consumer, else 1 *)
  l_exits : int array;
}

let compile m =
  let dag = Mapping.dag m in
  let copies = Mapping.n_copies m in
  let n_tasks = Dag.size dag in
  let n_rids = n_tasks * copies in
  let placed = Array.make n_rids false in
  let proc_of = Array.make n_rids (-1) in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          placed.((task * copies) + copy) <- true;
          proc_of.((task * copies) + copy) <- r.Replica.proc
    done
  done;
  let grp_off = Array.make (n_rids + 1) 0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      let rid = (task * copies) + copy in
      let n =
        match Mapping.replica m task copy with
        | None -> 0
        | Some r -> List.length r.Replica.sources
      in
      grp_off.(rid + 1) <- grp_off.(rid) + n
    done
  done;
  let n_groups = grp_off.(n_rids) in
  let src_off = Array.make (n_groups + 1) 0 in
  let src_lists = Array.make (max 1 n_groups) [] in
  let g = ref 0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          List.iter
            (fun (_, ids) ->
              src_off.(!g + 1) <- src_off.(!g) + List.length ids;
              src_lists.(!g) <- ids;
              incr g)
            r.Replica.sources
    done
  done;
  let n_srcs = src_off.(n_groups) in
  let src = Array.make (max 1 n_srcs) 0 in
  let eta = Array.make (max 1 n_srcs) 0 in
  let gi = ref 0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          List.iter
            (fun (_, ids) ->
              List.iteri
                (fun i (s : Replica.id) ->
                  let srid = (s.task * copies) + s.copy in
                  src.(src_off.(!gi) + i) <- srid;
                  eta.(src_off.(!gi) + i) <-
                    (if proc_of.(srid) = r.Replica.proc then 0 else 1))
                ids;
              incr gi)
            r.Replica.sources
    done
  done;
  {
    l_mapping = m;
    l_tasks = n_tasks;
    l_copies = copies;
    l_rids = n_rids;
    l_procs = Platform.size (Mapping.platform m);
    l_topo = Topo.order dag;
    l_placed = placed;
    l_proc = proc_of;
    l_grp_off = grp_off;
    l_src_off = src_off;
    l_src = src;
    l_eta = eta;
    l_exits = Array.of_list (Dag.exits dag);
  }

let plan_mapping pl = pl.l_mapping

let depth_of_plan ?(failed = []) pl =
  let copies = pl.l_copies in
  let dead_proc = Array.make pl.l_procs false in
  List.iter (fun p -> dead_proc.(p) <- true) failed;
  (* stage 0 = dead; alive replicas have stage >= 1 *)
  let stage = Array.make pl.l_rids 0 in
  Array.iter
    (fun task ->
      for copy = 0 to copies - 1 do
        let rid = (task * copies) + copy in
        if pl.l_placed.(rid) && not dead_proc.(pl.l_proc.(rid)) then begin
          (* Per predecessor, the best alive source; the replica is dead
             if some predecessor has none. *)
          let acc = ref 1 and starved = ref false in
          let g = ref pl.l_grp_off.(rid) in
          let g_end = pl.l_grp_off.(rid + 1) in
          while (not !starved) && !g < g_end do
            let best = ref max_int in
            for k = pl.l_src_off.(!g) to pl.l_src_off.(!g + 1) - 1 do
              let s = stage.(pl.l_src.(k)) in
              if s > 0 && s + pl.l_eta.(k) < !best then best := s + pl.l_eta.(k)
            done;
            if !best = max_int then starved := true
            else if !best > !acc then acc := !best;
            incr g
          done;
          if not !starved then stage.(rid) <- !acc
        end
      done)
    pl.l_topo;
  let rec max_over_exits acc i =
    if i >= Array.length pl.l_exits then Some acc
    else begin
      let exit_task = pl.l_exits.(i) in
      let best = ref max_int in
      for copy = 0 to copies - 1 do
        let s = stage.((exit_task * copies) + copy) in
        if s > 0 && s < !best then best := s
      done;
      if !best = max_int then None
      else max_over_exits (max acc !best) (i + 1)
    end
  in
  max_over_exits 0 0

let effective_depth ?failed m = depth_of_plan ?failed (compile m)

let latency_of_plan ?failed pl ~throughput =
  Option.map
    (fun depth -> float_of_int ((2 * depth) - 1) /. throughput)
    (depth_of_plan ?failed pl)

let latency ?failed m ~throughput = latency_of_plan ?failed (compile m) ~throughput

(* The shared plan cache: the stage-model counterpart of
   [Program_cache.programs]. *)
let plans : plan Program_cache.t = Program_cache.create ~capacity:64 compile
let cached_plan m = Program_cache.find plans m
