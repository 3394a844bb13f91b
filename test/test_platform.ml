open Test_support

let case = Fixtures.case
let check_float = Fixtures.check_float
let check_int = Fixtures.check_int
let check_true = Fixtures.check_true

let rejects name f =
  case name (fun () ->
      Alcotest.check_raises name (Invalid_argument "") (fun () ->
          try f () with Invalid_argument _ -> raise (Invalid_argument "")))

let construction_tests =
  [
    case "homogeneous accessors" (fun () ->
        let p = Fixtures.uniform 4 in
        check_int "size" 4 (Platform.size p);
        check_float "speed" 1.0 (Platform.speed p 2);
        check_float "bandwidth" 1.0 (Platform.bandwidth p 0 3);
        Alcotest.(check (list int)) "procs" [ 0; 1; 2; 3 ] (Platform.procs p));
    case "heterogeneous accessors" (fun () ->
        let p = Fixtures.hetero4 in
        check_float "speed" 0.5 (Platform.speed p 2);
        check_float "bandwidth symmetric" (Platform.bandwidth p 1 3)
          (Platform.bandwidth p 3 1));
    rejects "empty platform" (fun () ->
        ignore (Platform.create ~speeds:[||] ~bandwidth:[||] ()));
    rejects "non-positive speed" (fun () ->
        ignore
          (Platform.create ~speeds:[| 1.0; 0.0 |]
             ~bandwidth:(Array.make_matrix 2 2 1.0)
             ()));
    rejects "wrong matrix shape" (fun () ->
        ignore
          (Platform.create ~speeds:[| 1.0; 1.0 |]
             ~bandwidth:(Array.make_matrix 3 3 1.0)
             ()));
    rejects "asymmetric bandwidth" (fun () ->
        let bw = Array.make_matrix 2 2 1.0 in
        bw.(0).(1) <- 2.0;
        ignore (Platform.create ~speeds:[| 1.0; 1.0 |] ~bandwidth:bw ()));
    rejects "non-positive bandwidth" (fun () ->
        let bw = Array.make_matrix 2 2 0.0 in
        ignore (Platform.create ~speeds:[| 1.0; 1.0 |] ~bandwidth:bw ()));
    case "diagonal of the bandwidth matrix is ignored" (fun () ->
        let bw = Array.make_matrix 2 2 1.0 in
        bw.(0).(0) <- 0.0;
        bw.(1).(1) <- -5.0;
        let p = Platform.create ~speeds:[| 1.0; 1.0 |] ~bandwidth:bw () in
        check_int "built fine" 2 (Platform.size p));
    rejects "bandwidth on the same processor" (fun () ->
        ignore (Platform.bandwidth (Fixtures.uniform 2) 1 1));
  ]

let timing_tests =
  [
    case "exec time scales with speed" (fun () ->
        let p = Fixtures.hetero4 in
        check_float "fast" 5.0 (Platform.exec_time p 0 10.0);
        check_float "slow" 20.0 (Platform.exec_time p 2 10.0));
    case "comm time scales with bandwidth" (fun () ->
        let p = Fixtures.hetero4 in
        check_float "fast link" 2.5 (Platform.comm_time p 0 1 10.0);
        check_float "slow link" 10.0 (Platform.comm_time p 0 2 10.0));
    case "local comm is free" (fun () ->
        check_float "zero" 0.0 (Platform.comm_time Fixtures.hetero4 1 1 42.0);
        check_float "unit delay" 0.0 (Platform.unit_delay Fixtures.hetero4 1 1));
    case "unit delay is the inverse bandwidth" (fun () ->
        check_float "delay" 0.25 (Platform.unit_delay Fixtures.hetero4 0 1));
  ]

let aggregate_tests =
  [
    case "mean inverse speed" (fun () ->
        (* speeds 2, 1, 0.5, 1 -> inverses 0.5, 1, 2, 1 -> mean 1.125 *)
        check_float "mean" 1.125 (Platform.mean_inverse_speed Fixtures.hetero4));
    case "mean unit delay of a homogeneous platform" (fun () ->
        check_float "mean" 1.0 (Platform.mean_unit_delay (Fixtures.uniform 3)));
    case "mean unit delay of a single processor" (fun () ->
        check_float "no links" 0.0 (Platform.mean_unit_delay (Fixtures.uniform 1)));
    case "slowest exec time uses the slowest processor" (fun () ->
        check_float "slowest" 20.0 (Platform.slowest_exec_time Fixtures.hetero4 10.0));
    case "slowest comm time uses the slowest link" (fun () ->
        check_float "slowest" 10.0 (Platform.slowest_comm_time Fixtures.hetero4 10.0));
    case "slowest comm time of one processor is zero" (fun () ->
        check_float "zero" 0.0 (Platform.slowest_comm_time (Fixtures.uniform 1) 10.0));
    case "fastest processor" (fun () ->
        check_int "fastest" 0 (Platform.fastest_proc Fixtures.hetero4);
        check_int "first among ties" 0 (Platform.fastest_proc (Fixtures.uniform 5)));
    case "granularity of fig2 example" (fun () ->
        (* 72 work units over 9 edges of volume 2 on a unit platform *)
        let g = Classic.fig2_graph and p = Classic.fig2_platform ~m:8 in
        check_float "granularity" (72.0 /. 18.0) (Metrics.granularity g p));
    case "granularity with no edges is infinite" (fun () ->
        check_true "inf"
          (Metrics.granularity Fixtures.singleton (Fixtures.uniform 2) = infinity));
  ]

let topology_tests =
  [
    case "clustered bandwidths follow the cluster structure" (fun () ->
        let p =
          Topologies.clustered ~clusters:2 ~per_cluster:3 ~speed:1.0
            ~intra_bandwidth:4.0 ~inter_bandwidth:0.5 ()
        in
        check_int "size" 6 (Platform.size p);
        check_float "intra" 4.0 (Platform.bandwidth p 0 2);
        check_float "inter" 0.5 (Platform.bandwidth p 0 3);
        check_int "cluster index" 1 (Topologies.cluster_of ~per_cluster:3 4));
    case "star hub links are fast" (fun () ->
        let p =
          Topologies.star ~m:5 ~speed:1.0 ~hub_bandwidth:8.0 ~leaf_bandwidth:1.0 ()
        in
        check_float "hub" 8.0 (Platform.bandwidth p 0 4);
        check_float "leaf" 1.0 (Platform.bandwidth p 2 4));
    case "empty shapes are rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "") (fun () ->
            try
              ignore
                (Topologies.clustered ~clusters:0 ~per_cluster:2 ~speed:1.0
                   ~intra_bandwidth:1.0 ~inter_bandwidth:1.0 ())
            with Invalid_argument _ -> raise (Invalid_argument "")));
  ]

let () =
  Alcotest.run "stream_platform"
    [
      ("construction", construction_tests);
      ("timing", timing_tests);
      ("aggregate", aggregate_tests);
      ("topologies", topology_tests);
    ]
