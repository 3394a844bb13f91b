type task = int

type csr = {
  row_ptr : int array; (* length v + 1 *)
  cols : int array;    (* length e, neighbor ids, ascending per row *)
  vols : float array;  (* length e, matching volumes *)
}

type t = {
  name : string;
  exec : float array;
  labels : string array;
  succs : (task * float) list array;
  preds : (task * float) list array;
  n_edges : int;
  edge_tbl : (int, float) Hashtbl.t;
      (* (src * v + dst) -> volume; O(1) volume/has_edge lookups for the
         simulator's per-finish consumer loop and the schedulers *)
  mutable csr_succs_cache : csr option;
      (* flat compressed-row view, built on first demand; clustering and
         the scaling paths walk it instead of the cons-cell lists *)
}

(* The frozen edge table, rebuilt whenever the adjacency lists change
   (build, reverse, map_weights). *)
let index_edges succs =
  let n = Array.length succs in
  let tbl = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun src l ->
      List.iter (fun (dst, vol) -> Hashtbl.replace tbl ((src * n) + dst) vol) l)
    succs;
  tbl

(* Kahn's algorithm; returns false when some node is unreachable from the
   zero-in-degree frontier, i.e. the edge relation has a cycle. *)
let acyclic ~n ~succs ~in_degree =
  let indeg = Array.copy in_degree in
  let queue = Queue.create () in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then Queue.add u queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    List.iter
      (fun (w, _) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      succs.(u)
  done;
  !seen = n

module Builder = struct
  type dag = t

  type t = {
    b_name : string;
    n : int;
    b_exec : float array;
    b_labels : string array;
    mutable b_edges : (task * task * float) list;
    edge_set : (task * task, unit) Hashtbl.t;
  }

  let create ?(name = "dag") n =
    if n < 0 then invalid_arg "Dag.Builder.create: negative size";
    {
      b_name = name;
      n;
      b_exec = Array.make n 1.0;
      b_labels = Array.init n (fun i -> Printf.sprintf "t%d" i);
      b_edges = [];
      edge_set = Hashtbl.create (max 16 n);
    }

  let check_task b t what =
    if t < 0 || t >= b.n then
      invalid_arg (Printf.sprintf "Dag.Builder.%s: task %d out of range" what t)

  let set_exec b t w =
    check_task b t "set_exec";
    if w <= 0.0 then invalid_arg "Dag.Builder.set_exec: non-positive weight";
    b.b_exec.(t) <- w

  let set_label b t s =
    check_task b t "set_label";
    b.b_labels.(t) <- s

  let add_edge b ?(volume = 1.0) src dst =
    check_task b src "add_edge";
    check_task b dst "add_edge";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self loop";
    if volume <= 0.0 then invalid_arg "Dag.Builder.add_edge: non-positive volume";
    if Hashtbl.mem b.edge_set (src, dst) then
      invalid_arg
        (Printf.sprintf "Dag.Builder.add_edge: duplicate edge %d -> %d" src dst);
    Hashtbl.add b.edge_set (src, dst) ();
    b.b_edges <- (src, dst, volume) :: b.b_edges

  let build b : dag =
    let succs = Array.make b.n [] and preds = Array.make b.n [] in
    let in_degree = Array.make b.n 0 in
    List.iter
      (fun (src, dst, vol) ->
        succs.(src) <- (dst, vol) :: succs.(src);
        preds.(dst) <- (src, vol) :: preds.(dst);
        in_degree.(dst) <- in_degree.(dst) + 1)
      b.b_edges;
    if not (acyclic ~n:b.n ~succs ~in_degree) then
      invalid_arg "Dag.Builder.build: graph has a cycle";
    let sort = List.sort (fun (a, _) (c, _) -> compare a c) in
    let succs = Array.map sort succs in
    {
      name = b.b_name;
      exec = Array.copy b.b_exec;
      labels = Array.copy b.b_labels;
      succs;
      preds = Array.map sort preds;
      n_edges = List.length b.b_edges;
      edge_tbl = index_edges succs;
      csr_succs_cache = None;
    }
end

let of_edges ?name ~exec edges =
  let b = Builder.create ?name (Array.length exec) in
  Array.iteri (fun i w -> Builder.set_exec b i w) exec;
  List.iter (fun (src, dst, vol) -> Builder.add_edge b ~volume:vol src dst) edges;
  Builder.build b

let name g = g.name
let size g = Array.length g.exec
let n_edges g = g.n_edges
let exec g t = g.exec.(t)
let label g t = g.labels.(t)
let succs g t = g.succs.(t)
let preds g t = g.preds.(t)
let out_degree g t = List.length g.succs.(t)
let in_degree g t = List.length g.preds.(t)
let volume g src dst = Hashtbl.find g.edge_tbl ((src * size g) + dst)
let has_edge g src dst = Hashtbl.mem g.edge_tbl ((src * size g) + dst)

(* Flatten an adjacency-list array into compressed-row form.  The lists
   are already sorted by neighbor id (Builder.build sorts them), so the
   CSR rows inherit that order. *)
let csr_of_adjacency adj =
  let n = Array.length adj in
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u) + List.length adj.(u)
  done;
  let e = row_ptr.(n) in
  let cols = Array.make e 0 and vols = Array.make e 0.0 in
  for u = 0 to n - 1 do
    let i = ref row_ptr.(u) in
    List.iter
      (fun (w, vol) ->
        cols.(!i) <- w;
        vols.(!i) <- vol;
        incr i)
      adj.(u)
  done;
  { row_ptr; cols; vols }

let csr_succs g =
  match g.csr_succs_cache with
  | Some c -> c
  | None ->
      let c = csr_of_adjacency g.succs in
      g.csr_succs_cache <- Some c;
      c

let filter_tasks g keep =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if keep i then i :: acc else acc)
  in
  collect (size g - 1) []

let entries g = filter_tasks g (fun t -> g.preds.(t) = [])
let exits g = filter_tasks g (fun t -> g.succs.(t) = [])

let iter_tasks g f =
  for t = 0 to size g - 1 do
    f t
  done

let iter_edges g f =
  iter_tasks g (fun src -> List.iter (fun (dst, vol) -> f src dst vol) g.succs.(src))

let fold_tasks g ~init ~f =
  let acc = ref init in
  iter_tasks g (fun t -> acc := f !acc t);
  !acc

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun src dst vol -> acc := f !acc src dst vol);
  !acc

let total_exec g = Array.fold_left ( +. ) 0.0 g.exec

let reverse g =
  {
    g with
    name = g.name ^ "-rev";
    succs = Array.map (fun l -> l) g.preds;
    preds = Array.map (fun l -> l) g.succs;
    edge_tbl = index_edges g.preds;
    csr_succs_cache = None;
  }

let map_weights ?exec ?volume g =
  let exec_f = match exec with Some f -> f | None -> fun _ w -> w in
  let vol_f = match volume with Some f -> f | None -> fun _ _ w -> w in
  let remap_succs src = List.map (fun (dst, w) -> (dst, vol_f src dst w)) in
  let remap_preds dst = List.map (fun (src, w) -> (src, vol_f src dst w)) in
  let succs = Array.mapi remap_succs g.succs in
  {
    g with
    exec = Array.mapi exec_f g.exec;
    succs;
    preds = Array.mapi remap_preds g.preds;
    edge_tbl = index_edges succs;
    csr_succs_cache = None;
  }

let pp ppf g =
  Format.fprintf ppf "@[<v>dag %S: %d tasks, %d edges@," g.name (size g) g.n_edges;
  iter_tasks g (fun t ->
      Format.fprintf ppf "%s [E=%g] ->" g.labels.(t) g.exec.(t);
      List.iter
        (fun (dst, vol) -> Format.fprintf ppf " %s(%g)" g.labels.(dst) vol)
        g.succs.(t);
      Format.fprintf ppf "@,");
  Format.fprintf ppf "@]"
