open Test_support

let check_float = Fixtures.check_float
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true
let case = Fixtures.case

(* ------------------------------------------------------------------ *)
(* Builder and accessors                                               *)
(* ------------------------------------------------------------------ *)

let builder_rejects name f =
  case name (fun () ->
      Alcotest.check_raises name (Invalid_argument "") (fun () ->
          try f () with Invalid_argument _ -> raise (Invalid_argument "")))

let builder_tests =
  [
    case "empty graph" (fun () ->
        check_int "size" 0 (Dag.size Fixtures.empty);
        check_int "edges" 0 (Dag.n_edges Fixtures.empty);
        Alcotest.(check (list int)) "entries" [] (Dag.entries Fixtures.empty));
    case "singleton graph" (fun () ->
        let g = Fixtures.singleton in
        check_int "size" 1 (Dag.size g);
        Alcotest.(check (list int)) "entries" [ 0 ] (Dag.entries g);
        Alcotest.(check (list int)) "exits" [ 0 ] (Dag.exits g);
        check_float "exec defaults to 1" 1.0 (Dag.exec g 0));
    case "chain structure" (fun () ->
        let g = Fixtures.chain3 in
        check_int "edges" 2 (Dag.n_edges g);
        Alcotest.(check (list int)) "entries" [ 0 ] (Dag.entries g);
        Alcotest.(check (list int)) "exits" [ 2 ] (Dag.exits g);
        check_int "out degree" 1 (Dag.out_degree g 0);
        check_int "in degree" 1 (Dag.in_degree g 1);
        check_true "has edge" (Dag.has_edge g 0 1);
        check_true "no reverse edge" (not (Dag.has_edge g 1 0)));
    case "volume lookup" (fun () ->
        check_float "volume" 2.0 (Dag.volume Fixtures.diamond4 0 1);
        Alcotest.check_raises "missing edge" Not_found (fun () ->
            ignore (Dag.volume Fixtures.diamond4 1 2)));
    case "labels" (fun () ->
        Alcotest.(check string) "default label" "t1" (Dag.label Fixtures.diamond4 0));
    builder_rejects "negative size" (fun () ->
        ignore (Dag.Builder.create (-1)));
    builder_rejects "self loop" (fun () ->
        let b = Dag.Builder.create 2 in
        Dag.Builder.add_edge b 1 1);
    builder_rejects "duplicate edge" (fun () ->
        let b = Dag.Builder.create 2 in
        Dag.Builder.add_edge b 0 1;
        Dag.Builder.add_edge b 0 1);
    builder_rejects "zero volume" (fun () ->
        let b = Dag.Builder.create 2 in
        Dag.Builder.add_edge b ~volume:0.0 0 1);
    builder_rejects "non-positive exec" (fun () ->
        let b = Dag.Builder.create 1 in
        Dag.Builder.set_exec b 0 0.0);
    builder_rejects "out of range task" (fun () ->
        let b = Dag.Builder.create 2 in
        Dag.Builder.add_edge b 0 2);
    builder_rejects "cycle" (fun () ->
        let b = Dag.Builder.create 3 in
        Dag.Builder.add_edge b 0 1;
        Dag.Builder.add_edge b 1 2;
        Dag.Builder.add_edge b 2 0;
        ignore (Dag.Builder.build b));
    case "of_edges round trip" (fun () ->
        let g = Dag.of_edges ~exec:[| 1.0; 2.0 |] [ (0, 1, 3.0) ] in
        check_float "exec" 2.0 (Dag.exec g 1);
        check_float "volume" 3.0 (Dag.volume g 0 1));
    case "totals" (fun () ->
        check_float "total exec" 60.0 (Dag.total_exec Fixtures.diamond4));
    case "fold edges matches iter" (fun () ->
        let count = ref 0 in
        Dag.iter_edges Fixtures.fft8 (fun _ _ _ -> incr count);
        let folded =
          Dag.fold_edges Fixtures.fft8 ~init:0 ~f:(fun acc _ _ _ -> acc + 1)
        in
        check_int "edge counts" !count folded);
  ]

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let transform_tests =
  [
    case "reverse swaps directions" (fun () ->
        let g = Fixtures.chain3 in
        let r = Dag.reverse g in
        check_true "edge reversed" (Dag.has_edge r 1 0);
        Alcotest.(check (list int)) "entries become exits" (Dag.exits g) (Dag.entries r);
        check_int "edge count preserved" (Dag.n_edges g) (Dag.n_edges r));
    case "reverse preserves weights" (fun () ->
        let r = Dag.reverse Fixtures.diamond4 in
        check_float "exec" (Dag.exec Fixtures.diamond4 1) (Dag.exec r 1);
        check_float "volume" (Dag.volume Fixtures.diamond4 0 1) (Dag.volume r 1 0));
    case "double reverse is identity" (fun () ->
        let g = Fixtures.fft8 in
        let rr = Dag.reverse (Dag.reverse g) in
        Dag.iter_edges g (fun s d v ->
            check_float "same volume" v (Dag.volume rr s d)));
    case "map_weights scales exec" (fun () ->
        let g = Dag.map_weights ~exec:(fun _ w -> 2.0 *. w) Fixtures.chain3 in
        check_float "doubled" 2.0 (Dag.exec g 0);
        check_float "volume untouched" 1.0 (Dag.volume g 0 1));
    case "map_weights scales volumes consistently" (fun () ->
        let g =
          Dag.map_weights ~volume:(fun _ _ v -> 3.0 *. v) Fixtures.diamond4
        in
        Dag.iter_edges g (fun s d v ->
            check_float "succs and preds agree" v
              (List.assoc s (Dag.preds g d))));
  ]

(* ------------------------------------------------------------------ *)
(* Topological machinery                                               *)
(* ------------------------------------------------------------------ *)

let is_topological g order =
  let position = Array.make (Dag.size g) (-1) in
  Array.iteri (fun i t -> position.(t) <- i) order;
  Array.for_all (fun p -> p >= 0) position
  && Dag.fold_edges g ~init:true ~f:(fun acc s d _ ->
         acc && position.(s) < position.(d))

let topo_tests =
  [
    case "order is topological (fft)" (fun () ->
        check_true "topological" (is_topological Fixtures.fft8 (Topo.order Fixtures.fft8)));
    case "order is topological (gauss)" (fun () ->
        check_true "topological"
          (is_topological Fixtures.gauss5 (Topo.order Fixtures.gauss5)));
    case "reverse order reverses dependencies" (fun () ->
        let g = Fixtures.fft8 in
        let order = Topo.reverse_order g in
        check_true "anti-topological"
          (is_topological (Dag.reverse g) order));
    case "depth of chain" (fun () ->
        Alcotest.(check (array int)) "depths" [| 0; 1; 2 |] (Topo.depth Fixtures.chain3));
    case "height mirrors depth on chain" (fun () ->
        Alcotest.(check (array int)) "heights" [| 2; 1; 0 |] (Topo.height Fixtures.chain3));
    case "layers partition tasks" (fun () ->
        let layers = Topo.layers Fixtures.fft8 in
        let total = Array.fold_left (fun acc l -> acc + List.length l) 0 layers in
        check_int "all tasks in layers" (Dag.size Fixtures.fft8) total;
        check_int "fft has p+1 layers" 4 (Array.length layers));
    case "layers of empty graph" (fun () ->
        check_int "no layers" 0 (Array.length (Topo.layers Fixtures.empty)));
    case "reachability on diamond" (fun () ->
        let r = Topo.reachable Fixtures.diamond4 0 in
        Alcotest.(check (array bool)) "reaches all" [| false; true; true; true |] r);
    case "reachability from exit" (fun () ->
        let r = Topo.reachable Fixtures.diamond4 3 in
        check_true "reaches nothing" (Array.for_all not r));
    case "transitive closure matches reachability" (fun () ->
        let g = Fixtures.gauss5 in
        let closure = Topo.transitive_closure g in
        Dag.iter_tasks g (fun t ->
            let reach = Topo.reachable g t in
            Dag.iter_tasks g (fun u ->
                Fixtures.check_bool
                  (Printf.sprintf "closure %d->%d" t u)
                  reach.(u) closure.(t).(u))));
    case "independence" (fun () ->
        check_true "parallel branches" (Topo.independent Fixtures.diamond4 1 2);
        check_true "dependent pair" (not (Topo.independent Fixtures.diamond4 0 3));
        check_true "task not independent of itself"
          (not (Topo.independent Fixtures.diamond4 1 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Levels and priorities                                               *)
(* ------------------------------------------------------------------ *)

let levels_tests =
  let w = Levels.exec_weights Fixtures.diamond4 in
  [
    case "top levels on diamond" (fun () ->
        let tl = Levels.top Fixtures.diamond4 w in
        check_float "entry" 0.0 tl.(0);
        check_float "middle" 17.0 tl.(1);
        check_float "exit" 34.0 tl.(3));
    case "bottom levels on diamond" (fun () ->
        let bl = Levels.bottom Fixtures.diamond4 w in
        check_float "exit" 15.0 bl.(3);
        check_float "middle" 32.0 bl.(1);
        check_float "entry" 49.0 bl.(0));
    case "priority is constant on the critical path" (fun () ->
        let p = Levels.priority Fixtures.diamond4 w in
        check_float "entry = middle" p.(0) p.(1);
        check_float "middle = exit" p.(1) p.(3));
    case "critical path length" (fun () ->
        check_float "cp" 49.0 (Levels.critical_path_length Fixtures.diamond4 w));
    case "critical path length of empty graph" (fun () ->
        check_float "cp" 0.0 (Levels.critical_path_length Fixtures.empty w));
    case "top level of entries is zero on every graph" (fun () ->
        List.iter
          (fun g ->
            let tl = Levels.top g (Levels.exec_weights g) in
            List.iter (fun t -> check_float "entry tl" 0.0 tl.(t)) (Dag.entries g))
          [ Fixtures.fft8; Fixtures.gauss5; Fixtures.stencil33 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Width                                                               *)
(* ------------------------------------------------------------------ *)

let pairwise_independent g tasks =
  let rec check = function
    | [] -> true
    | t :: rest ->
        List.for_all (fun u -> Topo.independent g t u) rest && check rest
  in
  check tasks

let width_tests =
  [
    case "chain has width 1" (fun () ->
        check_int "width" 1 (Width.exact Fixtures.chain5));
    case "fork-join width equals its fan" (fun () ->
        check_int "width" 3 (Width.exact Fixtures.fork3));
    case "fft width equals the row count" (fun () ->
        check_int "width" 8 (Width.exact Fixtures.fft8));
    case "layer bound is a lower bound" (fun () ->
        List.iter
          (fun g ->
            check_true "bound <= exact" (Width.layer_lower_bound g <= Width.exact g))
          [ Fixtures.chain5; Fixtures.fork3; Fixtures.gauss5; Fixtures.stencil33 ]);
    case "antichain witness is valid and maximal" (fun () ->
        List.iter
          (fun g ->
            let a = Width.antichain g in
            check_int "witness size" (Width.exact g) (List.length a);
            check_true "pairwise independent" (pairwise_independent g a))
          [ Fixtures.chain5; Fixtures.fork3; Fixtures.fft8; Fixtures.gauss5 ]);
    case "stencil width" (fun () ->
        (* anti-diagonal of a 3x3 wavefront *)
        check_int "width" 3 (Width.exact Fixtures.stencil33));
  ]

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let paths_tests =
  let w g = Levels.exec_weights g in
  [
    case "critical path of a chain is the chain" (fun () ->
        Alcotest.(check (list int)) "path" [ 0; 1; 2 ]
          (Paths.critical_path Fixtures.chain3 (w Fixtures.chain3)));
    case "critical path of the empty graph" (fun () ->
        Alcotest.(check (list int)) "path" []
          (Paths.critical_path Fixtures.empty (w Fixtures.empty)));
    case "critical path realizes the critical length" (fun () ->
        let g = Fixtures.gauss5 in
        let weights = w g in
        let path = Paths.critical_path g weights in
        let length =
          let rec total = function
            | [] -> 0.0
            | [ t ] -> Dag.exec g t
            | a :: (b :: _ as rest) -> Dag.exec g a +. Dag.volume g a b +. total rest
          in
          total path
        in
        check_float "length" (Levels.critical_path_length g weights) length);
    case "path counts" (fun () ->
        let paths g = List.length (Paths.all_paths g) in
        check_int "chain" 1 (paths Fixtures.chain5);
        check_int "diamond" 2 (paths Fixtures.diamond4);
        check_int "fork-join" 3 (paths Fixtures.fork3);
        check_int "gauss" 8 (paths Fixtures.gauss5);
        check_int "empty" 0 (paths Fixtures.empty));
    case "all_paths respects the limit" (fun () ->
        check_int "limit" 5 (List.length (Paths.all_paths ~limit:5 Fixtures.fft8)));
    case "every enumerated path is a real path" (fun () ->
        let g = Fixtures.gauss5 in
        List.iter
          (fun path ->
            let rec ok = function
              | [] | [ _ ] -> true
              | a :: (b :: _ as rest) -> Dag.has_edge g a b && ok rest
            in
            check_true "edges exist" (ok path);
            (match path with
            | first :: _ -> check_true "starts at entry" (Dag.preds g first = [])
            | [] -> ());
            match List.rev path with
            | last :: _ -> check_true "ends at exit" (Dag.succs g last = [])
            | [] -> ())
          (Paths.all_paths g));
  ]

(* ------------------------------------------------------------------ *)
(* Series-parallel recognition                                         *)
(* ------------------------------------------------------------------ *)

let sp_tests =
  [
    case "chain is SP" (fun () ->
        check_true "sp" (Sp.is_series_parallel Fixtures.chain5));
    case "diamond is SP" (fun () ->
        check_true "sp" (Sp.is_series_parallel Fixtures.diamond4));
    case "fork-join is SP" (fun () ->
        check_true "sp" (Sp.is_series_parallel Fixtures.fork3));
    case "trivial graphs are SP" (fun () ->
        check_true "empty" (Sp.is_series_parallel Fixtures.empty);
        check_true "singleton" (Sp.is_series_parallel Fixtures.singleton));
    case "the N graph is not SP" (fun () ->
        (* a -> c, b -> c, b -> d : the classic forbidden pattern *)
        let g =
          Dag.of_edges ~exec:[| 1.; 1.; 1.; 1. |]
            [ (0, 2, 1.0); (1, 2, 1.0); (1, 3, 1.0) ]
        in
        check_true "not sp" (not (Sp.is_series_parallel g)));
    case "fft butterfly is not SP" (fun () ->
        check_true "not sp" (not (Sp.is_series_parallel Fixtures.fft8)));
    case "stencil is not SP" (fun () ->
        check_true "not sp" (not (Sp.is_series_parallel Fixtures.stencil33)));
    case "generated SP graphs are recognized" (fun () ->
        let rng = Rng.create ~seed:5 in
        for _ = 1 to 20 do
          let g = Random_dag.series_parallel ~rng ~tasks:30 () in
          check_true "sp" (Sp.is_series_parallel g)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* DOT export                                                          *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let dot_tests =
  [
    case "dot output mentions every task and edge" (fun () ->
        let s = Dot.to_string Fixtures.diamond4 in
        check_true "digraph header" (contains s "digraph");
        Dag.iter_tasks Fixtures.diamond4 (fun t ->
            check_true "node present" (contains s (Printf.sprintf "n%d [" t)));
        let arrows = ref 0 in
        String.iteri
          (fun i c ->
            if c = '-' && i + 1 < String.length s && s.[i + 1] = '>' then incr arrows)
          s;
        check_int "edges drawn" (Dag.n_edges Fixtures.diamond4) !arrows);
    case "highlight marks nodes" (fun () ->
        let s = Dot.to_string ~highlight:[ 0 ] Fixtures.chain3 in
        check_true "filled" (contains s "filled"));
  ]

let () =
  Alcotest.run "stream_dag"
    [
      ("builder", builder_tests);
      ("transform", transform_tests);
      ("topo", topo_tests);
      ("levels", levels_tests);
      ("width", width_tests);
      ("paths", paths_tests);
      ("series-parallel", sp_tests);
      ("dot", dot_tests);
    ]
