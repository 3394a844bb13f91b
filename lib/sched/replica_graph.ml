type t = {
  mapping : Mapping.t;
  tasks : int;
  copies : int;
  rids : int;
  procs : int;
  topo : int array;
  exits : int array;
  placed : bool array;
  proc : int array;
  grp_off : int array;
  src_off : int array;
  src : int array;
  eta : int array;
}

(* Two passes over the mapping in (task, copy) order, which is rid order:
   the first places replicas and counts groups and sources, the second
   fills the source CSR once every processor is known. *)
let compile m =
  let dag = Mapping.dag m in
  let copies = Mapping.n_copies m in
  let tasks = Dag.size dag in
  let rids = tasks * copies in
  let rid_of (id : Replica.id) = (id.task * copies) + id.copy in
  let placed = Array.make rids false in
  let proc = Array.make rids (-1) in
  let grp_off = Array.make (rids + 1) 0 in
  let n_srcs = ref 0 in
  Mapping.iter m (fun r ->
      let rid = rid_of r.Replica.id in
      placed.(rid) <- true;
      proc.(rid) <- r.Replica.proc;
      grp_off.(rid + 1) <- List.length r.Replica.sources;
      List.iter
        (fun (_, ids) -> n_srcs := !n_srcs + List.length ids)
        r.Replica.sources);
  for rid = 0 to rids - 1 do
    grp_off.(rid + 1) <- grp_off.(rid) + grp_off.(rid + 1)
  done;
  let src_off = Array.make (grp_off.(rids) + 1) 0 in
  let src = Array.make (max 1 !n_srcs) 0 in
  let eta = Array.make (max 1 !n_srcs) 0 in
  let g = ref 0 in
  Mapping.iter m (fun r ->
      List.iter
        (fun (_, ids) ->
          let k = ref src_off.(!g) in
          List.iter
            (fun id ->
              let s = rid_of id in
              src.(!k) <- s;
              eta.(!k) <- (if proc.(s) = r.Replica.proc then 0 else 1);
              incr k)
            ids;
          src_off.(!g + 1) <- !k;
          incr g)
        r.Replica.sources);
  {
    mapping = m;
    tasks;
    copies;
    rids;
    procs = Platform.size (Mapping.platform m);
    topo = Topo.order dag;
    exits = Array.of_list (Dag.exits dag);
    placed;
    proc;
    grp_off;
    src_off;
    src;
    eta;
  }

(* The stage buffer is owned by the evaluator and every rid is written
   once per call, in topological task order, before any consumer reads
   it: no reset between failure sets, and no stale stage survives. *)
let evaluator g =
  let copies = g.copies in
  (* stage 0 = dead; alive replicas have stage >= 1 *)
  let stage = Array.make g.rids 0 in
  fun dead_proc ->
    if Array.length dead_proc <> g.procs then
      invalid_arg "Replica_graph.evaluator: mask length is not the platform size";
    for t = 0 to Array.length g.topo - 1 do
      let task = g.topo.(t) in
      for copy = 0 to copies - 1 do
        let rid = (task * copies) + copy in
        stage.(rid) <- 0;
        if g.placed.(rid) && not dead_proc.(g.proc.(rid)) then begin
          (* Per predecessor, the best alive source; the replica is dead
             if some predecessor has none. *)
          let acc = ref 1 and starved = ref false in
          let gi = ref g.grp_off.(rid) in
          let g_end = g.grp_off.(rid + 1) in
          while (not !starved) && !gi < g_end do
            let best = ref max_int in
            for k = g.src_off.(!gi) to g.src_off.(!gi + 1) - 1 do
              let s = stage.(g.src.(k)) in
              if s > 0 && s + g.eta.(k) < !best then best := s + g.eta.(k)
            done;
            if !best = max_int then starved := true
            else if !best > !acc then acc := !best;
            incr gi
          done;
          if not !starved then stage.(rid) <- !acc
        end
      done
    done;
    (* the max over exit tasks of their best alive copy; -1 once some
       exit task has none *)
    let depth = ref 0 and i = ref 0 in
    while !depth >= 0 && !i < Array.length g.exits do
      let exit_task = g.exits.(!i) in
      let best = ref max_int in
      for copy = 0 to copies - 1 do
        let s = stage.((exit_task * copies) + copy) in
        if s > 0 && s < !best then best := s
      done;
      if !best = max_int then depth := -1
      else if !best > !depth then depth := !best;
      incr i
    done;
    if !depth < 0 then None else Some !depth

let depth ?(failed = []) g =
  let dead_proc = Array.make g.procs false in
  List.iter
    (fun p ->
      if p < 0 || p >= g.procs then
        invalid_arg "Replica_graph.depth: processor out of range";
      dead_proc.(p) <- true)
    failed;
  evaluator g dead_proc
