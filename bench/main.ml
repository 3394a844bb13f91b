(* The benchmark driver behind the CI trajectory files and gates.  Every
   mode is one flag:

     dune exec bench/main.exe -- --sched-json PATH
     dune exec bench/main.exe -- --sim-json PATH
     dune exec bench/main.exe -- --check-sched-json PATH
     dune exec bench/main.exe -- --check-sim-json PATH
     dune exec bench/main.exe -- --parallel-smoke
     dune exec bench/main.exe -- --gc-stats
*)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fixtures shared across iterations                                    *)
(* ------------------------------------------------------------------ *)

let best_effort = Scheduler.(default |> with_mode Best_effort)

let instance ~seed ~granularity =
  let rng = Rng.create ~seed in
  Spec.generate Spec.default ~rng ~granularity ()

let problem ~eps inst =
  Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
    ~eps
    ~throughput:(Paper_workload.throughput ~eps)

let prob_e1 = problem ~eps:1 (instance ~seed:1 ~granularity:1.0)

let rltf_mapping prob =
  match Rltf.schedule ~opts:best_effort prob with
  | Ok m -> m
  | Error _ -> failwith "bench fixture: R-LTF failed"

let opaque f () = ignore (Sys.opaque_identity (f ()))

(* ------------------------------------------------------------------ *)
(* Compiled simulator: before/after pairs                               *)
(* ------------------------------------------------------------------ *)

(* Each pair plays the same simulation scenario twice: compiling the
   mapping inside the timed region, and replaying a program compiled once
   outside it.  Both sides produce bit-identical results. *)

let sim_instance ~seed ~tasks =
  let rng = Rng.create ~seed in
  let spec = { Paper_workload.default_spec with tasks_range = (tasks, tasks) } in
  Spec.generate (Spec.paper spec) ~rng ~granularity:1.0 ()

let sim_mapping ~seed ~tasks ~eps =
  rltf_mapping (problem ~eps (sim_instance ~seed ~tasks))

let sim_small = sim_mapping ~seed:41 ~tasks:50 ~eps:1
let sim_medium_problem = problem ~eps:1 (sim_instance ~seed:42 ~tasks:100)
let sim_medium = rltf_mapping sim_medium_problem
let sim_large = sim_mapping ~seed:43 ~tasks:150 ~eps:2

let sim_small_prog = Engine.compile sim_small
let sim_medium_prog = Engine.compile sim_medium
let sim_large_prog = Engine.compile sim_large

(* One closed item: the config of every single-run pair below. *)
let one_item = Engine.Run.closed ()

let compile_pair name config m prog =
  ( name,
    opaque (fun () -> Engine.simulate ~config (Engine.compile m)),
    opaque (fun () -> Engine.simulate ~config prog) )

(* One estimator draw on the medium program: a single closed item with
   the message log off, replayed through a caller-owned arena. *)
let draw_config = Engine.Run.without_messages (Engine.Run.closed ())

let arena_draw ~state ~failed =
  (Engine.simulate ~state ~config:{ draw_config with failed } sim_medium_prog)
    .Engine.item_latency.(0)

(* The cache-hit path: what revisiting a mapping's program costs with and
   without the content-keyed cache.  The after side digests and looks up
   instead of compiling (the cache is warmed by the measurement loop
   itself). *)
let cache_lookup_compile () = ignore (Engine.compile sim_medium)
let cache_lookup_cached () = ignore (Program_cache.program sim_medium)

let epochs_per_mapping = 8

let epochs_run program =
  (* The operations layer's shape: one short resumed run per epoch against
     an unchanged mapping. *)
  let clock = ref 0.0 in
  for _ = 1 to epochs_per_mapping do
    let snapshot = Some { Engine.clock = !clock } in
    ignore
      (Engine.simulate
         ~config:{ (Engine.Run.closed ~n_items:4 ()) with Engine.Run.snapshot }
         (program ()));
    clock := !clock +. 100.0
  done

(* Accuracy-matched reliability pair: a Monte-Carlo defeat estimate
   needs on the order of 1000 draws to resolve a probability to a couple
   of percent, while the calculus computes it exactly in one analysis.
   Both sides answer the same question about the same mapping. *)
let reliability_mc_draws = 1000
let reliability_crashes = 2
let sim_medium_stages =
  Crash.Of_stages
    {
      plan = Replica_graph.compile sim_medium;
      throughput = Paper_workload.throughput ~eps:1;
    }

let stages_mc ~seed =
  Crash.estimate ~source:sim_medium_stages
    ~method_:
      (Crash.Sampled
         {
           crashes = reliability_crashes;
           draws = reliability_mc_draws;
           rng = Rng.create ~seed;
         })
    ()

let defeat_rate_mc () = (stages_mc ~seed:53).Crash.est_p_defeat

let defeat_rate_exact () =
  let t = Reliability.analyze ~max_cut_card:reliability_crashes sim_medium in
  Reliability.defeat_probability t
    (Reliability.Uniform_crashes reliability_crashes)

let degraded_stats_mc () = stages_mc ~seed:59

let degraded_stats_exact () =
  Crash.estimate ~source:sim_medium_stages
    ~method_:
      (Crash.Exact { crashes = reliability_crashes; max_evaluations = None })
    ()

let sim_pairs : (string * (unit -> unit) * (unit -> unit)) list =
  [
    compile_pair "single fault-free run (small, v=50)" one_item sim_small
      sim_small_prog;
    compile_pair "single fault-free run (medium, v=100)" one_item sim_medium
      sim_medium_prog;
    compile_pair "single fault-free run (large, v=150, eps=2)" one_item
      sim_large sim_large_prog;
    compile_pair "single crashy run (medium, mid-stream fail-stop)"
      { (Engine.Run.closed ~n_items:4 ()) with timed_failures = [ (3, 120.0) ] }
      sim_medium sim_medium_prog;
    ( "program for a revisited mapping (cache hit)",
      opaque cache_lookup_compile,
      opaque cache_lookup_cached );
    ( "8 resumed epochs, one mapping (stream ops shape)",
      opaque (fun () -> epochs_run (fun () -> Engine.compile sim_medium)),
      opaque (fun () -> epochs_run (fun () -> sim_medium_prog)) );
    ( "defeat probability (1000 MC draws vs calculus)",
      opaque defeat_rate_mc,
      opaque defeat_rate_exact );
    ( "degraded latency stats (1000 MC draws vs calculus)",
      opaque degraded_stats_mc,
      opaque degraded_stats_exact );
  ]

(* Scenario overhead: a closed run against the same program under a
   costlier scenario.  These are NOT before/after pairs — the scenario
   does strictly more work (queue-bound admission control, the armed
   fault model), so the gate is a bounded overhead ratio
   (open_ns / closed_ns <= 1.3), not a speedup >= 1. *)
let overhead_items = 20

let overhead_closed () =
  Engine.simulate
    ~config:(Engine.Run.closed ~n_items:overhead_items ())
    sim_medium_prog

(* A realistic open run: Poisson arrivals at the sustainable rate through
   a bounded queue (slightly different event sequence, same item count). *)
let overhead_open_bounded () =
  Engine.simulate
    ~config:
      (Engine.Run.open_ ~queue_bound:4 ~rng:(Rng.create ~seed:61)
         ~n_items:overhead_items
         (Arrival.Poisson
            { rate = 1.0 /. Engine.program_period sim_medium_prog }))
    sim_medium_prog

(* The fault machinery armed but inert: a transient window in the far
   future forces the instrumented dispatch path (per-attempt window and
   hash checks, attempt bookkeeping) while no fault ever fires, so the
   event sequence is identical to the closed baseline.  This is the
   price of carrying the fault model when it does nothing — gated at
   1.05x, much tighter than the open-system machinery's 1.3x. *)
let overhead_faults_inert () =
  Engine.simulate
    ~config:
      (Engine.Run.with_faults
         {
           Faults.none with
           Faults.transient =
             {
               Faults.Transient.none with
               Faults.Transient.exec_windows = [ (0, 1e12, 1e12 +. 1.0) ];
             };
         }
         (Engine.Run.closed ~n_items:overhead_items ()))
    sim_medium_prog

let fault_overhead_gate = 1.05

(* (name, gate, closed thunk, open/instrumented thunk): [gate] is the
   per-entry ratio ceiling recorded next to the measurement and enforced
   by [--check-sim-json]. *)
let overhead_pairs : (string * float * (unit -> unit) * (unit -> unit)) list =
  [
    ( "open-system bounded Poisson run (medium, 20 items)",
      1.3,
      opaque overhead_closed,
      opaque overhead_open_bounded );
    ( "fault machinery armed, no faults (medium, 20 items)",
      fault_overhead_gate,
      opaque overhead_closed,
      opaque overhead_faults_inert );
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let bench_cfg () =
  Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()

(* ns/run OLS estimates of one Test.make, as (label, ns) pairs. *)
let estimates cfg test =
  let measures = Instance.[ monotonic_clock ] in
  let results = Benchmark.all cfg measures test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock results in
  Hashtbl.fold
    (fun label result acc ->
      match Analyze.OLS.estimates result with
      | Some [ ns_per_run ] -> (label, Some ns_per_run) :: acc
      | _ -> (label, None) :: acc)
    analyzed []

(* One OLS estimate can land on a scheduler hiccup; the committed JSON
   numbers are the median of three independent estimates, so a single
   outlier repetition can no longer push a recorded pair across its
   gate. *)
let median3 f =
  match List.sort compare [ f (); f (); f () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

let measure_median cfg name thunk =
  median3 (fun () ->
      match estimates cfg (Test.make ~name (Staged.stage thunk)) with
      | [ (_, Some ns) ] -> ns
      | _ -> nan)

(* Measure a list of (name, before, after) pairs and render them as the
   perf-trajectory JSON pair objects shared by --sched-json and
   --sim-json. *)
let measure_pairs cfg pairs =
  let measure = measure_median cfg in
  List.map
    (fun (name, before, after) ->
      let before_ns = measure (name ^ " [before]") before in
      let after_ns = measure (name ^ " [after]") after in
      Printf.printf "%-48s %12.0f -> %10.0f ns/run (%5.1fx)\n%!" name before_ns
        after_ns (before_ns /. after_ns);
      Obs.Json.Obj
        [
          ("name", Obs.Json.Str name);
          ("before_ns", Obs.Json.Num before_ns);
          ("after_ns", Obs.Json.Num after_ns);
          ("speedup", Obs.Json.Num (before_ns /. after_ns));
        ])
    pairs

(* ------------------------------------------------------------------ *)
(* Large-instance scale points                                           *)
(* ------------------------------------------------------------------ *)

(* The huge-family scale points (up to v = 10⁶ tasks on p = 10³
   processors) are hours of compute, so they are not re-measured here:
   the scaling experiment (`experiments.exe scaling`) writes them to
   results/fig-scaling.csv, and the JSON emitters embed that file as a
   "scale" section when it is present.  The check gates then validate
   the committed points without re-running anything heavy. *)
let default_scale_csv = "results/fig-scaling.csv"

let scale_rows path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       ignore (input_line ic) (* header *);
       while true do
         match String.split_on_char ',' (input_line ic) with
         | v :: m :: eps :: algo :: sched_s :: sim_s :: _ ->
             rows :=
               Obs.Json.Obj
                 [
                   ("v", Obs.Json.Num (float_of_string v));
                   ("m", Obs.Json.Num (float_of_string m));
                   ("eps", Obs.Json.Num (float_of_string eps));
                   ("algo", Obs.Json.Str algo);
                   ("sched_ns", Obs.Json.Num (1e9 *. float_of_string sched_s));
                   ("sim_ns", Obs.Json.Num (1e9 *. float_of_string sim_s));
                 ]
               :: !rows
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

let scale_section csv =
  match scale_rows csv with
  | [] ->
      Printf.printf "no scale points (%s not found); \"scale\" omitted\n%!" csv;
      []
  | rows ->
      Printf.printf "embedded %d scale point(s) from %s\n%!" (List.length rows)
        csv;
      [ ("scale", Obs.Json.Arr rows) ]

let num_member key json =
  match Obs.Json.member key json with
  | Some (Obs.Json.Num n) -> Some n
  | _ -> None

let str_member key json =
  match Obs.Json.member key json with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* Sanity ceilings for the committed scale points, in ns per task: an
   order of magnitude above the recorded runs, so the gate catches a
   gross regression (or a garbage file) without tripping on hardware
   variance. *)
let scale_ceilings_ns_per_task =
  [ ("LTF", ("sched_ns", 3e7)); ("C-LTF", ("sched_ns", 3e6)) ]

let sim_ceiling_ns_per_task = 1e7

(* Validate a "scale" array: the acceptance point (v = 10⁶, m = 10³) must
   be present for both flat LTF and clustered C-LTF, with finite
   measurements under the ceilings.  [required] toggles between the sched
   gate (points mandatory) and the sim gate (validated when present). *)
let check_scale ~required ~path doc =
  let entries =
    match Obs.Json.member "scale" doc with
    | Some (Obs.Json.Arr entries) -> entries
    | _ -> []
  in
  let bad = ref 0 in
  if entries = [] then begin
    if required then begin
      Printf.printf "FAIL %s: no \"scale\" section (v=10^6 points required)\n"
        path;
      incr bad
    end
  end
  else begin
    List.iter
      (fun (algo, (key, ceiling)) ->
        let found =
          List.find_opt
            (fun e ->
              str_member "algo" e = Some algo
              && num_member "v" e = Some 1_000_000.0
              && num_member "m" e = Some 1_000.0)
            entries
        in
        match found with
        | None ->
            if required then begin
              Printf.printf "FAIL scale point %s v=10^6 m=10^3 missing\n" algo;
              incr bad
            end
        | Some e -> (
            match num_member key e with
            | Some ns
              when Float.is_finite ns && ns > 0.0
                   && ns /. 1e6 <= ceiling ->
                Printf.printf "ok   scale %-6s v=10^6 m=10^3 %s %.3g ns/task\n"
                  algo key (ns /. 1e6)
            | Some ns ->
                Printf.printf
                  "FAIL scale %-6s v=10^6 m=10^3 %s %.3g ns/task > %.3g\n" algo
                  key (ns /. 1e6) ceiling;
                incr bad
            | None ->
                Printf.printf "FAIL scale %-6s v=10^6 m=10^3: no %s\n" algo key;
                incr bad))
      scale_ceilings_ns_per_task;
    (* Every committed simulate measurement stays under the per-task
       ceiling, whichever algorithm produced the mapping. *)
    List.iter
      (fun e ->
        match (num_member "v" e, num_member "sim_ns" e) with
        | Some v, Some ns when Float.is_finite ns && ns /. v > sim_ceiling_ns_per_task ->
            Printf.printf "FAIL scale sim point %.3g ns/task > %.3g\n" (ns /. v)
              sim_ceiling_ns_per_task;
            incr bad
        | _ -> ())
      entries
  end;
  !bad

let write_json path doc =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --sched-json PATH: measure the scheduler trajectory points and emit
   them as one JSON document — the perf-trajectory format committed as
   BENCH_sched.json and produced by the CI bench smoke step.  The
   "pairs" array the check gate reads stays empty: the scheduler has no
   before/after pair whose "before" side is still live code. *)
let sched_json path =
  let cfg = bench_cfg () in
  let measure = measure_median cfg in
  let trajectory =
    List.map
      (fun (key, thunk) ->
        let ns = measure key thunk in
        Printf.printf "%-40s %12.0f ns/run\n%!" key ns;
        (key, Obs.Json.Num ns))
      [
        ( "ltf_schedule_ns",
          opaque (fun () -> Ltf.schedule ~opts:best_effort prob_e1) );
        ( "rltf_schedule_ns",
          opaque (fun () -> Rltf.schedule ~opts:best_effort prob_e1) );
      ]
  in
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "streamsched-bench-sched/1");
         ("pairs", Obs.Json.Arr []);
         ("trajectory", Obs.Json.Obj trajectory);
       ]
      @ scale_section default_scale_csv)
  in
  write_json path doc

(* ------------------------------------------------------------------ *)
(* Parallel estimate scaling and per-draw allocation                    *)
(* ------------------------------------------------------------------ *)

(* The -j scaling point: one 1000-draw Monte-Carlo estimate fanned over a
   domain pool.  The estimate is bit-identical at every worker count (the
   smoke below asserts it); only the wall-clock may move. *)
let parallel_draws = 1000

let estimate_at_jobs jobs =
  Crash.estimate ~jobs ~source:(Crash.Of_program sim_medium_prog)
    ~method_:
      (Crash.Sampled
         { crashes = 1; draws = parallel_draws; rng = Rng.create ~seed:71 })
    ()

let parallel_jobs = [ 1; 2; 4 ]
let parallel_speedup_gate = 2.0

(* The worker-count identity: one 1000-draw estimate at -j 1/2/4,
   asserting bit-identity (exit 1 on any divergence) and printing raw
   wall-clocks for the log.  It is the CI determinism step
   ([--parallel-smoke]) and runs before any scaling timing, because a
   scaling number for a parallel path that changed the answer is
   worthless.  No OLS, no JSON: a correctness gate, not a measurement. *)
let parallel_smoke () =
  let reference = estimate_at_jobs 1 in
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      let e = estimate_at_jobs jobs in
      let dt = Unix.gettimeofday () -. t0 in
      if e <> reference then begin
        Printf.eprintf "FAIL estimate at -j %d differs from -j 1\n" jobs;
        exit 1
      end;
      Printf.printf "ok   -j %d bit-identical (%d draws, %.3f s)\n%!" jobs
        parallel_draws dt)
    parallel_jobs;
  Printf.printf "parallel estimate smoke: all worker counts identical\n%!"

let parallel_section cfg =
  parallel_smoke ();
  let entries =
    List.map
      (fun jobs ->
        let ns =
          measure_median cfg
            (Printf.sprintf "estimate %d draws, -j %d" parallel_draws jobs)
            (opaque (fun () -> estimate_at_jobs jobs))
        in
        Printf.printf "estimate %4d draws, -j %d %24.0f ns/run\n%!"
          parallel_draws jobs ns;
        Obs.Json.Obj
          [ ("jobs", Obs.Json.Num (float_of_int jobs)); ("ns", Obs.Json.Num ns) ])
      parallel_jobs
  in
  Obs.Json.Obj
    [
      ("draws", Obs.Json.Num (float_of_int parallel_draws));
      (* The recording machine's core count decides which gate applies
         when the file is checked: full scaling can only be demanded of
         measurements taken on hardware that could exhibit it. *)
      ("cores", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("gate", Obs.Json.Num parallel_speedup_gate);
      ("entries", Obs.Json.Arr entries);
    ]

(* Per-draw allocation of the arena draw, measured with
   [Gc.allocated_bytes] rather than the clock. *)
let alloc_iters = 100
let alloc_reps = 5

(* Bytes allocated so far.  On OCaml 5.1 [Gc.allocated_bytes] counts
   the words allocated in the minor heap since the last minor collection
   at an eighth of their size, so a window that no collection crosses
   reads about 8x low; [Gc.minor_words] counts them exactly. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Minimum over repetitions, not a single pass: [Gc.allocated_bytes]
   on OCaml 5.1 sporadically over-reports around minor collections
   (promotion accounting), so identical code can measure tens of
   percent high on any one pass.  The jumps are strictly upward, which
   makes the min across passes the stable estimate of what a draw
   actually allocates. *)
let bytes_per_call thunk =
  thunk ();
  (* warm: grow the arena, fault in the code path *)
  let best = ref infinity in
  for _ = 1 to alloc_reps do
    let before = allocated_bytes () in
    for _ = 1 to alloc_iters do
      thunk ()
    done;
    let b = (allocated_bytes () -. before) /. float_of_int alloc_iters in
    if b < !best then best := b
  done;
  !best

(* --sim-json PATH: the compiled-simulator before/after pairs plus the
   single-run trajectory points, committed as BENCH_sim.json — the second
   point of the perf trajectory. *)
let sim_json path =
  let cfg = bench_cfg () in
  let measure = measure_median cfg in
  let pairs = measure_pairs cfg sim_pairs in
  let overheads =
    List.map
      (fun (name, gate, closed, opened) ->
        let closed_ns = measure (name ^ " [closed]") closed in
        let open_ns = measure (name ^ " [open]") opened in
        Printf.printf
          "%-48s %12.0f -> %10.0f ns/run (%5.2fx overhead, gate %.2fx)\n%!"
          name closed_ns open_ns (open_ns /. closed_ns) gate;
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str name);
            ("closed_ns", Obs.Json.Num closed_ns);
            ("open_ns", Obs.Json.Num open_ns);
            ("ratio", Obs.Json.Num (open_ns /. closed_ns));
            ("gate", Obs.Json.Num gate);
          ])
      overhead_pairs
  in
  let trajectory =
    List.map
      (fun (key, thunk) ->
        let ns = measure key thunk in
        Printf.printf "%-48s %12.0f ns/run\n%!" key ns;
        (key, Obs.Json.Num ns))
      [
        ( "engine_compile_medium_ns",
          opaque (fun () -> Engine.compile sim_medium) );
        ( "engine_run_compiled_medium_ns",
          opaque (fun () -> Engine.simulate ~config:one_item sim_medium_prog) );
        ( "engine_run_compiled_20_items_ns",
          opaque (fun () ->
              Engine.simulate
                ~config:(Engine.Run.closed ~n_items:20 ())
                sim_medium_prog) );
      ]
  in
  let doc =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "streamsched-bench-sim/1");
         ("pairs", Obs.Json.Arr pairs);
         ("overheads", Obs.Json.Arr overheads);
         ("parallel", parallel_section cfg);
         ("trajectory", Obs.Json.Obj trajectory);
       ]
      @ scale_section default_scale_csv)
  in
  write_json path doc

(* The open-system machinery may cost something, but not much: fail when
   a recorded closed-vs-open ratio exceeds this.  An entry can carry its
   own tighter ceiling in a "gate" member (the fault-machinery pair is
   recorded at 1.05x); this global is the default for entries without
   one, including files recorded before gates existed. *)
let max_open_overhead = 1.3

let load_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match Obs.Json.parse body with
  | Error msg ->
      Printf.eprintf "%s: unparseable: %s\n" path msg;
      exit 1
  | Ok doc -> doc

(* Returns the number of out-of-bounds pairs; shared by both check
   gates. *)
let check_pairs ~path doc =
  let pairs =
    match Obs.Json.member "pairs" doc with
    | Some (Obs.Json.Arr pairs) -> pairs
    | _ ->
        Printf.eprintf "%s: no \"pairs\" array\n" path;
        exit 1
  in
  let bad = ref 0 in
  List.iter
    (fun pair ->
      let name =
        match str_member "name" pair with Some s -> s | None -> "<unnamed>"
      in
      match num_member "speedup" pair with
      | Some s when s >= 1.0 -> Printf.printf "ok   %-48s %5.1fx\n" name s
      | Some s ->
          Printf.printf "FAIL %-48s %5.2fx < 1.0\n" name s;
          incr bad
      | None ->
          Printf.printf "FAIL %-48s missing speedup\n" name;
          incr bad)
    pairs;
  (List.length pairs, !bad)

(* Validate a "parallel" section when present: entries are (jobs, ns)
   with a -j 1 reference.  Full scaling (the recorded gate, 2x by
   default) is demanded only when the recording machine had at least as
   many cores as workers; on smaller machines parallelism cannot pay,
   so the gate degrades to bounded overhead (no worse than 2x slower
   than -j 1). *)
let check_parallel ~path doc =
  match Obs.Json.member "parallel" doc with
  | None -> 0
  | Some section ->
      let bad = ref 0 in
      let entries =
        match Obs.Json.member "entries" section with
        | Some (Obs.Json.Arr entries) -> entries
        | _ -> []
      in
      let ns_at jobs =
        List.find_map
          (fun e ->
            if num_member "jobs" e = Some (float_of_int jobs) then
              num_member "ns" e
            else None)
          entries
      in
      let cores =
        match num_member "cores" section with Some c -> c | None -> 1.0
      in
      let gate =
        match num_member "gate" section with Some g -> g | None -> 2.0
      in
      (match ns_at 1 with
      | None ->
          Printf.printf "FAIL %s: \"parallel\" section has no -j 1 entry\n"
            path;
          incr bad
      | Some ns1 ->
          List.iter
            (fun e ->
              match (num_member "jobs" e, num_member "ns" e) with
              | Some jobs, Some ns when jobs > 1.0 ->
                  let speedup = ns1 /. ns in
                  let required = if cores >= jobs then gate else 0.5 in
                  if Float.is_finite speedup && speedup >= required then
                    Printf.printf
                      "ok   parallel -j %.0f %32.2fx vs -j 1 (>= %.2fx, %.0f \
                       cores)\n"
                      jobs speedup required cores
                  else begin
                    Printf.printf
                      "FAIL parallel -j %.0f %30.2fx vs -j 1 < %.2fx\n" jobs
                      speedup required;
                    incr bad
                  end
              | _ -> ())
            entries);
      !bad

(* --check-sim-json PATH: regression guard over a committed trajectory
   file — fail the build when any recorded before/after pair has
   regressed below break-even, any open-system overhead ratio exceeds
   {!max_open_overhead}, or the parallel estimate stopped scaling (or
   started costing).  When the
   file carries large-instance scale points, their simulate cost must
   stay under the per-task ceiling. *)
let check_sim_json path =
  let doc = load_json path in
  let n_pairs, pair_bad = check_pairs ~path doc in
  let bad = ref pair_bad in
  (* Tolerate files recorded before the overheads section existed. *)
  let overheads =
    match Obs.Json.member "overheads" doc with
    | Some (Obs.Json.Arr entries) -> entries
    | _ -> []
  in
  List.iter
    (fun entry ->
      let name =
        match str_member "name" entry with Some s -> s | None -> "<unnamed>"
      in
      let gate =
        match num_member "gate" entry with
        | Some g -> g
        | None -> max_open_overhead
      in
      match num_member "ratio" entry with
      | Some r when r <= gate ->
          Printf.printf "ok   %-48s %5.2fx overhead (gate %.2fx)\n" name r gate
      | Some r ->
          Printf.printf "FAIL %-48s %5.2fx overhead > %.2fx\n" name r gate;
          incr bad
      | None ->
          Printf.printf "FAIL %-48s missing overhead ratio\n" name;
          incr bad)
    overheads;
  bad := !bad + check_parallel ~path doc;
  bad := !bad + check_scale ~required:false ~path doc;
  if !bad > 0 then begin
    Printf.eprintf "%s: %d entry(ies) out of bounds\n" path !bad;
    exit 1
  end;
  Printf.printf
    "%s: %d pair(s) at or above break-even, %d overhead(s) within their \
     gates\n"
    path n_pairs (List.length overheads)

(* --check-sched-json PATH: regression guard over the committed scheduler
   trajectory — break-even pairs as above, plus the million-task
   acceptance points: the file must carry v=10⁶, m=10³ scale entries for
   both LTF and C-LTF with per-task costs under the ceilings. *)
let check_sched_json path =
  let doc = load_json path in
  let n_pairs, pair_bad = check_pairs ~path doc in
  let bad = ref pair_bad in
  bad := !bad + check_scale ~required:true ~path doc;
  if !bad > 0 then begin
    Printf.eprintf "%s: %d entry(ies) out of bounds\n" path !bad;
    exit 1
  end;
  Printf.printf "%s: %d pair(s) at or above break-even, scale points ok\n" path
    n_pairs

(* --gc-stats: allocation and collection counts per arena draw, and the
   allocation of a fresh arena's first long run, in a human-readable dump
   CI uploads as an artifact.  Exits 1 when the draw allocates more than
   [arena_draw_ceiling] bytes: per-run engine state belongs in the arena,
   so the draw must stay near its fixed result-record cost (about
   1 KiB).  Exits 1 as well when the fresh run allocates more than
   [fresh_instance_ceiling] bytes per (item, replica) instance: the
   arena grows its per-instance slabs once, and its message pool only to
   the transfers pending or in flight at one time (a pool holding one
   slot per transfer of the run measured about 220 bytes per
   instance).  Exits 1 as well when one LTF + R-LTF schedule of the
   medium instance allocates more than [schedule_pair_ceiling] bytes:
   the placement step judges every candidate in state-owned buffers, so
   what is left is the per-placement and per-task bookkeeping and the
   forward source derivation (about 1.8 MB; 2.15 MB while the
   derivation built lists and closures per candidate).  Exits 1
   as well when one restoration of the medium mapping — a
   [Recovery.restore] after a crash plus the [Program_cache.program]
   lookup that finds its program — allocates more than
   [restore_ceiling] bytes: the derivation is one flat pass and the cache
   key is hashed in a reused scratch, so what is left is mostly the
   restored mapping itself (about 267 KB; 727 KB before). *)
let arena_draw_ceiling = 2048.0
let fresh_items = 256
let fresh_instance_ceiling = 96.0
let schedule_pair_ceiling = 2.2e6
let restore_ceiling = 4e5

(* Bytes allocated by a fresh arena's first [fresh_items]-item closed
   run on the medium program, log off: the minimum over [alloc_reps]
   runs, as in [bytes_per_call], and the instance count it is judged
   per. *)
let fresh_arena_run () =
  let config =
    Engine.Run.without_messages (Engine.Run.closed ~n_items:fresh_items ())
  in
  let best = ref infinity in
  for _ = 1 to alloc_reps do
    Gc.minor ();
    let before = allocated_bytes () in
    ignore (Sys.opaque_identity (Engine.simulate ~config sim_medium_prog));
    best := Float.min !best (allocated_bytes () -. before)
  done;
  let instances =
    fresh_items
    * Dag.size (Mapping.dag sim_medium)
    * Mapping.n_copies sim_medium
  in
  (!best, instances)

(* Bytes one best-effort LTF + R-LTF schedule of the medium instance
   allocates: the minimum over [alloc_reps] pairs, as in
   [bytes_per_call]. *)
let schedule_pair_bytes () =
  let best = ref infinity in
  for _ = 1 to alloc_reps do
    Gc.minor ();
    let before = allocated_bytes () in
    ignore (Sys.opaque_identity (Ltf.schedule ~opts:best_effort sim_medium_problem));
    ignore (Sys.opaque_identity (Rltf.schedule ~opts:best_effort sim_medium_problem));
    best := Float.min !best (allocated_bytes () -. before)
  done;
  !best

(* Bytes one restoration of the medium mapping allocates after the host
   of replica t0(0) crashes: the restore and the cache lookup of the
   restored mapping's program, compiled once before the window.  The
   minimum over [alloc_reps] restorations, as in [bytes_per_call]. *)
let restore_bytes () =
  let failed = [ (Mapping.replica_exn sim_medium 0 0).Replica.proc ] in
  let restoration () =
    match Recovery.restore sim_medium ~failed with
    | Ok m -> ignore (Sys.opaque_identity (Program_cache.program m))
    | Error e -> failwith (Recovery.error_to_string e)
  in
  restoration ();
  let best = ref infinity in
  for _ = 1 to alloc_reps do
    Gc.minor ();
    let before = allocated_bytes () in
    restoration ();
    best := Float.min !best (allocated_bytes () -. before)
  done;
  !best

let gc_stats () =
  Printf.printf "## GC per draw (medium workload, %d draws)\n" alloc_iters;
  let name = "arena reuse, log off (estimate draw)" in
  let state = Engine.Run_state.create sim_medium_prog in
  let thunk () =
    ignore (Sys.opaque_identity (arena_draw ~state ~failed:[ 0 ]))
  in
  thunk ();
  (* Start the window on an empty minor heap: on OCaml 5.1 a minor
     collection inside it charges the window with everything set-up left
     in the minor heap, so whether the gate passed depended on how much
     the schedulers that built [sim_medium_prog] happened to allocate. *)
  Gc.minor ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let b0 = allocated_bytes () in
  for _ = 1 to alloc_iters do
    thunk ()
  done;
  let b1 = allocated_bytes () in
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let per x0 x1 = (x1 -. x0) /. float_of_int alloc_iters in
  Printf.printf
    "%-42s %12.0f bytes (min %.0f)  %8.1f minor words  %8.1f major words  \
     %6.2f minor collections\n%!"
    name (per b0 b1) (bytes_per_call thunk)
    (per w0 w1)
    (per s0.Gc.major_words s1.Gc.major_words)
    (per
       (float_of_int s0.Gc.minor_collections)
       (float_of_int s1.Gc.minor_collections));
  let fresh_name =
    Printf.sprintf "fresh arena, log off (%d-item run)" fresh_items
  in
  let fresh_bytes, instances = fresh_arena_run () in
  let per_instance = fresh_bytes /. float_of_int instances in
  Printf.printf
    "%-42s %12.0f bytes  %8.1f bytes per instance (%d instances)\n%!"
    fresh_name fresh_bytes per_instance instances;
  let pair_name = "LTF + R-LTF schedule (medium, v=100)" in
  let pair_bytes = schedule_pair_bytes () in
  Printf.printf "%-42s %12.0f bytes\n%!" pair_name pair_bytes;
  let restore_name = "restore + cached program (medium, v=100)" in
  let restored_bytes = restore_bytes () in
  Printf.printf "%-42s %12.0f bytes\n%!" restore_name restored_bytes;
  let failed = ref false in
  if per b0 b1 > arena_draw_ceiling then begin
    Printf.eprintf "FAIL %s allocates %.0f bytes per draw (ceiling %.0f)\n"
      name (per b0 b1) arena_draw_ceiling;
    failed := true
  end;
  if per_instance > fresh_instance_ceiling then begin
    Printf.eprintf
      "FAIL %s allocates %.1f bytes per instance (ceiling %.0f)\n" fresh_name
      per_instance fresh_instance_ceiling;
    failed := true
  end;
  if pair_bytes > schedule_pair_ceiling then begin
    Printf.eprintf "FAIL %s allocates %.0f bytes (ceiling %.0f)\n" pair_name
      pair_bytes schedule_pair_ceiling;
    failed := true
  end;
  if restored_bytes > restore_ceiling then begin
    Printf.eprintf "FAIL %s allocates %.0f bytes (ceiling %.0f)\n"
      restore_name restored_bytes restore_ceiling;
    failed := true
  end;
  if !failed then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "--sched-json" :: path :: _ -> sched_json path
  | _ :: "--sim-json" :: path :: _ -> sim_json path
  | _ :: "--check-sim-json" :: path :: _ -> check_sim_json path
  | _ :: "--check-sched-json" :: path :: _ -> check_sched_json path
  | _ :: "--parallel-smoke" :: _ -> parallel_smoke ()
  | _ :: "--gc-stats" :: _ -> gc_stats ()
  | _ ->
      prerr_endline
        "usage: main.exe (--sched-json PATH | --sim-json PATH | \
         --check-sched-json PATH | --check-sim-json PATH | --parallel-smoke | \
         --gc-stats)";
      exit 2
