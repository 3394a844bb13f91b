let labelled name n exec edges =
  let b = Dag.Builder.create ~name n in
  List.iteri (fun i w -> Dag.Builder.set_exec b i w) exec;
  List.iter (fun (s, d, v) -> Dag.Builder.add_edge b ~volume:v s d) edges;
  (* Labels t1 .. tn to match the paper's numbering. *)
  for i = 0 to n - 1 do
    Dag.Builder.set_label b i (Printf.sprintf "t%d" (i + 1))
  done;
  Dag.Builder.build b

let fig1_graph =
  labelled "fig1" 4
    [ 15.0; 15.0; 15.0; 15.0 ]
    [ (0, 1, 2.0); (0, 2, 2.0); (1, 3, 2.0); (2, 3, 2.0) ]

let fig1_platform =
  Platform.create ~name:"fig1-platform"
    ~speeds:[| 1.5; 1.0; 1.5; 1.0 |]
    ~bandwidth:(Array.make_matrix 4 4 1.0)
    ()

let fig2_graph =
  labelled "fig2" 7
    [ 15.0; 6.0; 20.0; 5.0; 5.0; 6.0; 15.0 ]
    [
      (0, 1, 2.0);
      (0, 2, 2.0);
      (1, 3, 2.0);
      (1, 4, 2.0);
      (1, 5, 2.0);
      (3, 5, 2.0);
      (4, 5, 2.0);
      (2, 6, 2.0);
      (5, 6, 2.0);
    ]

let fig2_platform ~m =
  Platform.homogeneous ~name:"fig2-platform" ~m ~speed:1.0 ~bandwidth:1.0 ()

let chain ~n ~exec ~volume =
  let b = Dag.Builder.create ~name:"chain" n in
  for i = 0 to n - 1 do
    Dag.Builder.set_exec b i exec;
    if i > 0 then Dag.Builder.add_edge b ~volume (i - 1) i
  done;
  Dag.Builder.build b

let fork_join ~width ~exec ~volume =
  if width < 1 then invalid_arg "Classic.fork_join: width < 1";
  let n = width + 2 in
  let b = Dag.Builder.create ~name:"fork-join" n in
  for i = 0 to n - 1 do
    Dag.Builder.set_exec b i exec
  done;
  for k = 1 to width do
    Dag.Builder.add_edge b ~volume 0 k;
    Dag.Builder.add_edge b ~volume k (n - 1)
  done;
  Dag.Builder.build b

let diamond ~levels ~exec ~volume =
  if levels < 1 then invalid_arg "Classic.diamond: levels < 1";
  (* Level sizes 1, 2, ..., levels, ..., 2, 1. *)
  let sizes =
    List.init levels (fun i -> i + 1) @ List.init (levels - 1) (fun i -> levels - 1 - i)
  in
  let offsets, total =
    List.fold_left
      (fun (offsets, sum) size -> (sum :: offsets, sum + size))
      ([], 0) sizes
  in
  let offsets = Array.of_list (List.rev offsets) in
  let sizes = Array.of_list sizes in
  let b = Dag.Builder.create ~name:"diamond" total in
  for i = 0 to total - 1 do
    Dag.Builder.set_exec b i exec
  done;
  for level = 0 to Array.length sizes - 2 do
    let here = sizes.(level) and next = sizes.(level + 1) in
    for i = 0 to here - 1 do
      let src = offsets.(level) + i in
      if next > here then begin
        (* widening: task i feeds i and i+1 *)
        Dag.Builder.add_edge b ~volume src (offsets.(level + 1) + i);
        Dag.Builder.add_edge b ~volume src (offsets.(level + 1) + i + 1)
      end
      else begin
        (* narrowing: task i feeds i-1 and i when they exist *)
        if i - 1 >= 0 && i - 1 < next then
          Dag.Builder.add_edge b ~volume src (offsets.(level + 1) + i - 1);
        if i < next then Dag.Builder.add_edge b ~volume src (offsets.(level + 1) + i)
      end
    done
  done;
  Dag.Builder.build b

let fft ~p ~exec ~volume =
  if p < 1 then invalid_arg "Classic.fft: p < 1";
  let rows = 1 lsl p in
  let n = rows * (p + 1) in
  let b = Dag.Builder.create ~name:(Printf.sprintf "fft-%d" rows) n in
  let id col row = (col * rows) + row in
  for i = 0 to n - 1 do
    Dag.Builder.set_exec b i exec
  done;
  for col = 0 to p - 1 do
    for row = 0 to rows - 1 do
      Dag.Builder.add_edge b ~volume (id col row) (id (col + 1) row);
      Dag.Builder.add_edge b ~volume (id col row) (id (col + 1) (row lxor (1 lsl col)))
    done
  done;
  Dag.Builder.build b

let gaussian_elimination ~n ~exec ~volume =
  if n < 2 then invalid_arg "Classic.gaussian_elimination: n < 2";
  (* Step k has a pivot task and update tasks for columns k+1 .. n-1; the
     pivot feeds every update of its step, and update (k, j) feeds both the
     pivot and update tasks of step k+1 that touch column j. *)
  let ids = Hashtbl.create 64 in
  let counter = ref 0 in
  let fresh key =
    Hashtbl.replace ids key !counter;
    incr counter
  in
  for k = 0 to n - 2 do
    fresh (`Pivot k);
    for j = k + 1 to n - 1 do
      fresh (`Update (k, j))
    done
  done;
  let b = Dag.Builder.create ~name:(Printf.sprintf "gauss-%d" n) !counter in
  for i = 0 to !counter - 1 do
    Dag.Builder.set_exec b i exec
  done;
  let id key = Hashtbl.find ids key in
  for k = 0 to n - 2 do
    for j = k + 1 to n - 1 do
      Dag.Builder.add_edge b ~volume (id (`Pivot k)) (id (`Update (k, j)));
      if k + 1 <= n - 2 && j >= k + 1 then begin
        if j = k + 1 then
          Dag.Builder.add_edge b ~volume (id (`Update (k, j))) (id (`Pivot (k + 1)))
        else
          Dag.Builder.add_edge b ~volume
            (id (`Update (k, j)))
            (id (`Update (k + 1, j)))
      end
    done
  done;
  Dag.Builder.build b

let stencil ~rows ~cols ~exec ~volume =
  if rows < 1 || cols < 1 then invalid_arg "Classic.stencil: empty grid";
  let b = Dag.Builder.create ~name:"stencil" (rows * cols) in
  let id i j = (i * cols) + j in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Dag.Builder.set_exec b (id i j) exec;
      if i + 1 < rows then Dag.Builder.add_edge b ~volume (id i j) (id (i + 1) j);
      if j + 1 < cols then Dag.Builder.add_edge b ~volume (id i j) (id i (j + 1))
    done
  done;
  Dag.Builder.build b

let stream_pipeline ~stages ~branches ~exec ~volume =
  if stages < 1 then invalid_arg "Classic.stream_pipeline: stages < 1";
  if branches < 1 then invalid_arg "Classic.stream_pipeline: branches < 1";
  (* per segment: a splitter, [branches] filters, a joiner; joiners feed
     the next splitter *)
  let per = branches + 2 in
  let n = stages * per in
  let b = Dag.Builder.create ~name:"stream-pipeline" n in
  for i = 0 to n - 1 do
    Dag.Builder.set_exec b i exec
  done;
  for s = 0 to stages - 1 do
    let split = s * per in
    let join = split + per - 1 in
    Dag.Builder.set_label b split (Printf.sprintf "split%d" s);
    Dag.Builder.set_label b join (Printf.sprintf "join%d" s);
    for k = 1 to branches do
      Dag.Builder.set_label b (split + k) (Printf.sprintf "filter%d.%d" s k);
      Dag.Builder.add_edge b ~volume split (split + k);
      Dag.Builder.add_edge b ~volume (split + k) join
    done;
    if s > 0 then Dag.Builder.add_edge b ~volume ((s - 1) * per + per - 1) split
  done;
  Dag.Builder.build b
