(* Shared graphs, platforms and helpers for the test suites. *)

let chain3 = Classic.chain ~n:3 ~exec:1.0 ~volume:1.0
let chain5 = Classic.chain ~n:5 ~exec:2.0 ~volume:0.5
let diamond4 = Classic.fig1_graph (* t0 -> {t1, t2} -> t3, weights 15/2 *)
let fork3 = Classic.fork_join ~width:3 ~exec:1.0 ~volume:1.0
let fft8 = Classic.fft ~p:3 ~exec:1.0 ~volume:0.5
let gauss5 = Classic.gaussian_elimination ~n:5 ~exec:1.0 ~volume:0.5
let stencil33 = Classic.stencil ~rows:3 ~cols:3 ~exec:1.0 ~volume:0.5

let singleton =
  let b = Dag.Builder.create ~name:"singleton" 1 in
  Dag.Builder.build b

let empty =
  let b = Dag.Builder.create ~name:"empty" 0 in
  Dag.Builder.build b

let uniform m = Platform.homogeneous ~name:"uniform" ~m ~speed:1.0 ~bandwidth:1.0 ()

let hetero4 =
  Platform.create ~name:"hetero4"
    ~speeds:[| 2.0; 1.0; 0.5; 1.0 |]
    ~bandwidth:
      [|
        [| 0.0; 4.0; 1.0; 2.0 |];
        [| 4.0; 0.0; 2.0; 1.0 |];
        [| 1.0; 2.0; 0.0; 4.0 |];
        [| 2.0; 1.0; 4.0; 0.0 |];
      |]
    ()

(* Deterministic paper-workload instance for integration tests. *)
let paper_instance ?(seed = 42) ?(granularity = 1.0) () =
  let rng = Rng.create ~seed in
  Spec.generate Spec.default ~rng ~granularity ()

(* Schedule helpers. *)
let must_schedule ?mode algo prob =
  let opts =
    match mode with
    | None -> Scheduler.default
    | Some mode -> Scheduler.(default |> with_mode mode)
  in
  let run =
    match algo with `Ltf -> Ltf.schedule ~opts | `Rltf -> Rltf.schedule ~opts
  in
  match run prob with
  | Ok mapping -> mapping
  | Error f ->
      Alcotest.failf "expected a schedule, got failure: %s"
        (Types.failure_to_string f)

let check_valid ?(what = "mapping") mapping ~throughput =
  match Validate.all mapping ~throughput with
  | [] -> ()
  | errors ->
      Alcotest.failf "%s invalid: %s" what
        (String.concat "; " (List.map Validate.error_to_string errors))

let check_tolerant ?(what = "mapping") mapping =
  match Validate.structure mapping with
  | _ :: _ as errors ->
      Alcotest.failf "%s structurally broken: %s" what
        (Validate.error_to_string (List.hd errors))
  | [] -> (
      match Validate.fault_tolerance mapping with
      | [] -> ()
      | errors ->
          Alcotest.failf "%s not fault tolerant: %s" what
            (Validate.error_to_string (List.hd errors)))

(* One run of a freshly compiled [m]: a single fault-free item unless
   [config] says otherwise. *)
let simulate ?(config = Engine.Run.closed ()) m =
  Engine.simulate ~config (Engine.compile m)

(* Event-heap helpers: insert with a plain key, and pop every element
   as (key, value), reading the key before each pop. *)
let heap_add h key v = Event_heap.add h [| key |] v

let heap_drain h =
  let rec go acc =
    if Event_heap.is_empty h then List.rev acc
    else begin
      let key = h.Event_heap.keys.(0) in
      go ((key, Event_heap.unsafe_pop h) :: acc)
    end
  in
  go []

(* Single-item latency of [m] with the processors in [failed] down. *)
let fixed_latency ?(failed = []) m =
  (Crash.estimate ~source:(Crash.Of_mapping m) ~method_:(Crash.Fixed failed) ())
    .Crash.est_mean

(* Alcotest shorthands. *)
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true name b = Alcotest.(check bool) name true b
