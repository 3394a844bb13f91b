type weights = {
  node : Dag.task -> float;
  edge : Dag.task -> Dag.task -> float -> float;
}

let exec_weights g : weights =
  { node = Dag.exec g; edge = (fun _ _ v -> v) }

let top g w =
  let tl = Array.make (Dag.size g) 0.0 in
  Array.iter
    (fun t ->
      List.iter
        (fun (p, vol) ->
          let via = tl.(p) +. w.node p +. w.edge p t vol in
          if via > tl.(t) then tl.(t) <- via)
        (Dag.preds g t))
    (Topo.order g);
  tl

let bottom g w =
  let bl = Array.make (Dag.size g) 0.0 in
  Array.iter
    (fun t ->
      bl.(t) <- w.node t;
      List.iter
        (fun (s, vol) ->
          let via = w.node t +. w.edge t s vol +. bl.(s) in
          if via > bl.(t) then bl.(t) <- via)
        (Dag.succs g t))
    (Topo.reverse_order g);
  bl

let priority g w =
  let tl = top g w and bl = bottom g w in
  Array.init (Dag.size g) (fun t -> tl.(t) +. bl.(t))

let critical_path_length g w =
  let bl = bottom g w in
  List.fold_left (fun acc t -> Float.max acc bl.(t)) 0.0 (Dag.entries g)
