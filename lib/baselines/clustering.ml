type t = {
  dag : Dag.t;
  parent : int array;
  cluster_load : float array; (* valid at canonical representatives *)
}

let create dag =
  {
    dag;
    parent = Array.init (Dag.size dag) Fun.id;
    cluster_load = Array.init (Dag.size dag) (Dag.exec dag);
  }

let rec find t x =
  if t.parent.(x) = x then x
  else begin
    let root = find t t.parent.(x) in
    t.parent.(x) <- root;
    root
  end

let same t a b = find t a = find t b
let load t c = t.cluster_load.(find t c)

let merge t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let keep, drop = if ra < rb then (ra, rb) else (rb, ra) in
    t.parent.(drop) <- keep;
    t.cluster_load.(keep) <- t.cluster_load.(keep) +. t.cluster_load.(drop)
  end

let merge_if t ~max_load a b =
  let ra = find t a and rb = find t b in
  if ra = rb then true
  else if t.cluster_load.(ra) +. t.cluster_load.(rb) > max_load then false
  else begin
    merge t a b;
    true
  end

let canonical_ids t =
  let seen = Hashtbl.create 16 in
  let ids = ref [] in
  Dag.iter_tasks t.dag (fun task ->
      let c = find t task in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        ids := c :: !ids
      end);
  List.rev !ids

let n_clusters t = List.length (canonical_ids t)

let members t =
  let ids = canonical_ids t in
  let index = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.add index c i) ids;
  let slots = Array.make (List.length ids) [] in
  for task = Dag.size t.dag - 1 downto 0 do
    let i = Hashtbl.find index (find t task) in
    slots.(i) <- task :: slots.(i)
  done;
  slots

let cut_volume t =
  Dag.fold_edges t.dag ~init:0.0 ~f:(fun acc src dst vol ->
      if same t src dst then acc else acc +. vol)

(* Safe merges for hierarchical placement: an edge [u -> v] with
   [out_degree u = 1] and [in_degree v = 1] admits no alternate path
   between its endpoints, so contracting it (and, inductively, any set of
   such contractions — every cluster stays a path segment whose interior
   nodes have in/out degree 1) keeps the quotient graph acyclic.  This is
   the linear-chain clustering the Hary–Özgüner baseline hints at, made a
   reusable primitive. *)
let chain_edge dag src dst =
  Dag.out_degree dag src = 1 && Dag.in_degree dag dst = 1

let affinity ?(max_load = infinity) dag =
  let t = create dag in
  let edges =
    Dag.fold_edges dag ~init:[] ~f:(fun acc src dst vol ->
        if chain_edge dag src dst then (src, dst, vol) :: acc else acc)
    |> List.sort (fun (sa, da, va) (sb, db, vb) ->
           match compare vb va with
           | 0 -> compare (sa, da) (sb, db)
           | c -> c)
  in
  List.iter (fun (src, dst, _) -> ignore (merge_if t ~max_load src dst)) edges;
  t

(* The cluster DAG: one node per cluster (dense ids in [members] order),
   execution weight the summed member weights, and one edge per pair of
   clusters joined by at least one task edge, carrying the summed volume.
   Merges restricted to [chain_edge] contractions guarantee acyclicity, so
   [Dag.Builder.build]'s cycle check never fires for quotients built by
   {!affinity}. *)
let quotient t =
  let groups = members t in
  let k = Array.length groups in
  let cluster_of = Array.make (Dag.size t.dag) 0 in
  Array.iteri
    (fun i tasks -> List.iter (fun task -> cluster_of.(task) <- i) tasks)
    groups;
  let b = Dag.Builder.create ~name:(Dag.name t.dag ^ "-quotient") k in
  Array.iteri
    (fun i tasks ->
      Dag.Builder.set_exec b i
        (List.fold_left (fun acc task -> acc +. Dag.exec t.dag task) 0.0 tasks);
      Dag.Builder.set_label b i (Printf.sprintf "c%d" i))
    groups;
  let vols = Hashtbl.create (max 16 k) in
  Dag.iter_edges t.dag (fun src dst vol ->
      let cs = cluster_of.(src) and cd = cluster_of.(dst) in
      if cs <> cd then begin
        let key = (cs, cd) in
        let prev = try Hashtbl.find vols key with Not_found -> 0.0 in
        Hashtbl.replace vols key (prev +. vol)
      end);
  (* Insert in a deterministic order (hash tables iterate arbitrarily). *)
  Hashtbl.fold (fun key vol acc -> (key, vol) :: acc) vols []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((cs, cd), vol) -> Dag.Builder.add_edge b ~volume:vol cs cd);
  (Dag.Builder.build b, cluster_of, groups)

let to_assignment t plat =
  let groups = members t in
  let group_load =
    Array.map
      (fun tasks ->
        List.fold_left (fun acc task -> acc +. Dag.exec t.dag task) 0.0 tasks)
      groups
  in
  let order =
    List.init (Array.length groups) Fun.id
    |> List.sort (fun a b ->
           match compare group_load.(b) group_load.(a) with
           | 0 -> compare a b
           | c -> c)
  in
  let proc_time = Array.make (Platform.size plat) 0.0 in
  let assignment = Array.make (Dag.size t.dag) 0 in
  List.iter
    (fun g ->
      (* Place on the processor finishing this cluster soonest. *)
      let best = ref 0 and best_time = ref infinity in
      List.iter
        (fun proc ->
          let time = proc_time.(proc) +. (group_load.(g) /. Platform.speed plat proc) in
          if time < !best_time then begin
            best := proc;
            best_time := time
          end)
        (Platform.procs plat);
      proc_time.(!best) <- !best_time;
      List.iter (fun task -> assignment.(task) <- !best) groups.(g))
    order;
  assignment
