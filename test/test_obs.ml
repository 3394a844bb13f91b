(* The observability layer: registry semantics, merge laws, the JSON
   round trip, the documented key set, the Scheduler.Algo registry — and
   the two contracts everything else leans on: recording never changes a
   result, and parallel sweeps fold worker registries deterministically. *)

open Test_support

let case = Fixtures.case
let slow_case = Fixtures.slow_case
let check_int = Fixtures.check_int
let check_float = Fixtures.check_float
let check_true = Fixtures.check_true
let must_schedule = Fixtures.must_schedule
let paper_instance = Fixtures.paper_instance

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* Most tests drive a private registry directly; the ones that exercise
   the process-global accumulator flip [Obs.set_enabled] and must restore
   the disabled default so they cannot leak state into each other. *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    case "counters add up and default to zero" (fun () ->
        let r = Obs.Registry.create () in
        check_int "absent" 0 (Obs.Registry.counter r "x");
        Obs.Registry.incr r "x";
        Obs.Registry.incr ~by:41 r "x";
        check_int "42" 42 (Obs.Registry.counter r "x");
        Obs.Registry.incr ~by:0 r "y";
        check_true "touch registers" (List.mem_assoc "y" (Obs.Registry.counters r)));
    case "histograms track count/sum/min/max" (fun () ->
        let r = Obs.Registry.create () in
        List.iter (Obs.Registry.observe r "h") [ 3.0; 1.0; 2.0 ];
        match Obs.Registry.histogram r "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some h ->
            check_int "count" 3 h.Obs.Registry.count;
            check_float "sum" 6.0 h.Obs.Registry.sum;
            check_float "min" 1.0 h.Obs.Registry.min;
            check_float "max" 3.0 h.Obs.Registry.max;
            check_int "bucket total" 3
              (List.fold_left (fun a (_, c) -> a + c) 0 h.Obs.Registry.buckets));
    case "log-scale buckets separate magnitudes" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.observe r "h" 1.0;
        Obs.Registry.observe r "h" 1000.0;
        match Obs.Registry.histogram r "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some h ->
            check_true "two distinct buckets"
              (List.length h.Obs.Registry.buckets >= 2));
    case "span stats accumulate calls and total" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.span_add r "s" 0.25;
        Obs.Registry.span_add r "s" 0.75;
        match Obs.Registry.span_stats r "s" with
        | None -> Alcotest.fail "span missing"
        | Some s ->
            check_int "calls" 2 s.Obs.Registry.calls;
            check_float "total" 1.0 s.Obs.Registry.total);
    case "clear empties, is_empty reports it" (fun () ->
        let r = Obs.Registry.create () in
        check_true "fresh is empty" (Obs.Registry.is_empty r);
        Obs.Registry.incr r "x";
        Obs.Registry.observe r "h" 1.0;
        check_true "not empty" (not (Obs.Registry.is_empty r));
        Obs.Registry.clear r;
        check_true "cleared" (Obs.Registry.is_empty r));
  ]

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

(* A registry with a deterministic but varied content, derived from an
   integer seed without any RNG. *)
let synth seed =
  let r = Obs.Registry.create () in
  let n = 1 + (seed mod 5) in
  for i = 0 to n do
    Obs.Registry.incr ~by:(1 + ((seed + i) mod 7)) r
      (Printf.sprintf "c%d" (i mod 3));
    Obs.Registry.observe r "h"
      (float_of_int (1 + ((seed * (i + 1)) mod 1000)));
    Obs.Registry.span_add r
      (Printf.sprintf "s%d" (i mod 2))
      (float_of_int ((seed + i) mod 10) /. 8.0)
  done;
  r

let registry_equal a b =
  (* Canonical JSON sorts keys, so equality of dumps is registry
     equality. *)
  String.equal (Obs.Registry.to_json a) (Obs.Registry.to_json b)

let merge_tests =
  let merged rs =
    let into = Obs.Registry.create () in
    List.iter (fun r -> Obs.Registry.merge ~into r) rs;
    into
  in
  [
    case "merge adds counters, histograms and spans" (fun () ->
        let m = merged [ synth 1; synth 2 ] in
        check_int "counter"
          (Obs.Registry.counter (synth 1) "c0" + Obs.Registry.counter (synth 2) "c0")
          (Obs.Registry.counter m "c0");
        let count r =
          match Obs.Registry.histogram r "h" with
          | None -> 0
          | Some h -> h.Obs.Registry.count
        in
        check_int "histogram count"
          (count (synth 1) + count (synth 2))
          (count m));
    case "merge into empty is identity" (fun () ->
        check_true "identity" (registry_equal (merged [ synth 7 ]) (synth 7)));
    case "merge is associative (QCheck)" (fun () ->
        let prop (a, b, c) =
          let left =
            merged [ merged [ synth a; synth b ]; synth c ]
          and right = merged [ synth a; merged [ synth b; synth c ] ] in
          registry_equal left right
        in
        let arb = QCheck.(triple (int_range 0 50) (int_range 0 50) (int_range 0 50)) in
        let t = QCheck.Test.make ~count:50 ~name:"assoc" arb prop in
        QCheck.Test.check_exn t);
  ]

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    case "to_json / of_json round trips" (fun () ->
        let r = synth 13 in
        match Obs.Registry.of_json (Obs.Registry.to_json r) with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok r' -> check_true "round trip" (registry_equal r r'));
    case "round trip over synthetic registries (QCheck)" (fun () ->
        let prop seed =
          let r = synth seed in
          match Obs.Registry.of_json (Obs.Registry.to_json r) with
          | Error _ -> false
          | Ok r' -> registry_equal r r'
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:100 ~name:"round-trip"
             QCheck.(int_range 0 10_000)
             prop));
    case "of_json rejects garbage" (fun () ->
        check_true "not JSON"
          (Result.is_error (Obs.Registry.of_json "not json at all"));
        check_true "wrong shape"
          (Result.is_error (Obs.Registry.of_json "[1,2,3]")));
    case "pp_text mentions every section" (fun () ->
        let s = Format.asprintf "%a" Obs.Registry.pp_text (synth 3) in
        List.iter
          (fun needle -> check_true needle (contains s needle))
          [ "c0"; "h"; "s0" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Instrumentation is observational                                    *)
(* ------------------------------------------------------------------ *)

let paper_problem ?(seed = 42) () =
  let inst = paper_instance ~seed () in
  Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
    ~eps:1
    ~throughput:(Paper_workload.throughput ~eps:1)

let fingerprint mapping = Mapping_io.print mapping

let purity_tests =
  [
    case "disabled by default; recording off costs nothing visible" (fun () ->
        check_true "disabled" (not (Obs.enabled ()));
        Obs.incr "never";
        Obs.observe "never.h" 1.0;
        Obs.with_span "never.s" ignore;
        check_true "nothing recorded" (Obs.Registry.is_empty (Obs.snapshot ())));
    case "LTF schedule identical with metrics on and off (QCheck)" (fun () ->
        let prop seed =
          let prob = paper_problem ~seed () in
          let opts = Scheduler.(default |> with_mode Best_effort) in
          let plain =
            match Ltf.schedule ~opts prob with
            | Ok m -> fingerprint m
            | Error f -> Types.failure_to_string f
          in
          let observed =
            with_obs (fun () ->
                match Ltf.schedule ~opts prob with
                | Ok m -> fingerprint m
                | Error f -> Types.failure_to_string f)
          in
          String.equal plain observed
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:10 ~name:"obs-invariant"
             QCheck.(int_range 0 10_000)
             prop));
    case "a scheduler run populates the core metrics" (fun () ->
        with_obs (fun () ->
            let opts = Scheduler.(default |> with_mode Best_effort) in
            (match Ltf.schedule ~opts (paper_problem ()) with
            | Ok _ -> ()
            | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f));
            (match Rltf.schedule ~opts (paper_problem ()) with
            | Ok _ -> ()
            | Error f -> Alcotest.failf "R-LTF failed: %s" (Types.failure_to_string f));
            let reg = Obs.snapshot () in
            check_true "probes" (Obs.Registry.counter reg "core.placement_probes" > 0);
            check_true "commits" (Obs.Registry.counter reg "core.commits" > 0);
            check_true "chunks" (Obs.Registry.counter reg "core.chunks" > 0);
            check_true "chunk-size histogram"
              (Obs.Registry.histogram reg "core.chunk_size" <> None);
            check_true "ltf span"
              (Obs.Registry.span_stats reg "core.ltf.run" <> None);
            check_true "rltf span"
              (Obs.Registry.span_stats reg "core.rltf.run" <> None)));
    case "a simulator run populates the sim metrics" (fun () ->
        with_obs (fun () ->
            let mapping =
              must_schedule ~mode:Scheduler.Best_effort `Rltf (paper_problem ())
            in
            ignore
              (Fixtures.simulate ~config:(Engine.Run.closed ~n_items:2 ()) mapping);
            let reg = Obs.snapshot () in
            check_true "events" (Obs.Registry.counter reg "sim.events_popped" > 0);
            check_int "runs" 1 (Obs.Registry.counter reg "sim.runs");
            check_true "heap high-water"
              (match Obs.Registry.histogram reg "sim.heap_size" with
              | Some h -> h.Obs.Registry.max >= 1.0
              | None -> false)));
    case "an all-defeated engine estimate still counts every draw" (fun () ->
        (* An unreplicated chain across all three processors: the cut
           predicate defeats every single-crash draw, so nothing is
           replayed, yet each draw is counted once as drawn and once as
           defeated. *)
        let m =
          Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 3)
            ~eps:0
        in
        let rep task = { Replica.task; copy = 0 } in
        List.iter
          (fun task ->
            Mapping.assign m
              {
                Replica.id = rep task;
                proc = task;
                sources =
                  (if task = 0 then [] else [ (task - 1, [ rep (task - 1) ]) ]);
              })
          [ 0; 1; 2 ];
        let program = Engine.compile m in
        with_obs (fun () ->
            let e =
              Crash.estimate ~source:(Crash.Of_program program)
                ~method_:
                  (Crash.Sampled
                     { crashes = 1; draws = 8; rng = Rng.create ~seed:5 })
                ()
            in
            let reg = Obs.snapshot () in
            check_int "all defeated" 8 e.Crash.est_defeated;
            check_int "draws" 8 (Obs.Registry.counter reg "sim.crash.draws");
            check_int "defeats" 8
              (Obs.Registry.counter reg "sim.crash.defeats");
            check_int "no replay ran" 0 (Obs.Registry.counter reg "sim.runs")));
    case "collect under a domain pool folds worker registries" (fun () ->
        let config =
          {
            (Fig_common.quick ~eps:1 ~crashes:0) with
            Fig_common.graphs_per_point = 2;
            granularities = [ 0.8; 1.2 ];
          }
        in
        let trials reg = Obs.Registry.counter reg "exp.trials" in
        let seq, seq_samples =
          with_obs (fun () ->
              let samples = Fig_common.collect ~jobs:1 config in
              (trials (Obs.snapshot ()), samples))
        in
        let par, par_samples =
          with_obs (fun () ->
              let samples = Fig_common.collect ~jobs:2 config in
              (trials (Obs.snapshot ()), samples))
        in
        check_int "same trial count either way" seq par;
        check_int "all trials counted" 4 par;
        check_true "samples byte-identical"
          (List.for_all2
             (fun (x : Fig_common.sample) (y : Fig_common.sample) ->
               Int64.equal
                 (Int64.bits_of_float (Fig_common.ltf_sim x))
                 (Int64.bits_of_float (Fig_common.ltf_sim y)))
             seq_samples par_samples));
    case "core counter totals of pinned schedules" (fun () ->
        (* LTF and R-LTF on the seed-42 paper problem, strict and best
           effort: every per-candidate counter is pinned, so batching the
           increments must keep each total. *)
        let keys =
          [
            "core.placement_probes"; "core.probe_prunes";
            "core.feasibility_rejections"; "core.one_to_one_calls";
            "core.general_calls"; "core.commits"; "core.chunks";
          ]
        in
        let totals =
          with_obs (fun () ->
              List.iter
                (fun mode ->
                  let opts = Scheduler.(default |> with_mode mode) in
                  ignore (Ltf.schedule ~opts (paper_problem ()));
                  ignore (Rltf.schedule ~opts (paper_problem ())))
                [ Scheduler.Strict; Scheduler.Best_effort ];
              let reg = Obs.snapshot () in
              List.map (fun k -> (k, Obs.Registry.counter reg k)) keys)
        in
        Alcotest.(check (list (pair string int)))
          "totals"
          [
            ("core.placement_probes", 5978); ("core.probe_prunes", 9669);
            ("core.feasibility_rejections", 18); ("core.one_to_one_calls", 732);
            ("core.general_calls", 206); ("core.commits", 800);
            ("core.chunks", 40);
          ]
          totals);
  ]

(* ------------------------------------------------------------------ *)
(* The documented key set                                              *)
(* ------------------------------------------------------------------ *)

let report_tests =
  [
    case "an empty registry misses every required key" (fun () ->
        match Obs_report.validate (Obs.Registry.create ()) with
        | Ok () -> Alcotest.fail "empty registry validated"
        | Error missing ->
            check_int "all keys missing"
              (List.length Obs_report.required_counters
              + List.length Obs_report.required_histograms
              + List.length Obs_report.required_spans
              + 1 (* the exp.fig.<figure> span *))
              (List.length missing));
    case "validate_string rejects invalid JSON" (fun () ->
        check_true "rejected" (Result.is_error (Obs_report.validate_string "{")));
    slow_case
      "a latency+recovery+convergence+traffic+faults run satisfies \
       --check-metrics"
      (fun () ->
        with_obs (fun () ->
            (* The documented key set spans all five profiles: the
               latency experiment covers the scheduler/simulator/sweep
               keys, the recovery experiment the ops.recovery.* family,
               the traffic experiment the sim.queue.* / sim.drops
               open-system keys (only open runs record the occupancy
               histogram), the convergence + exact-recovery runs the
               rel.* calculus keys, and the faults experiment the
               sim.retries / sim.gray.* / sim.faults.* / ops.evictions
               family (the sim.retry_backoff_time histogram only exists
               once a retry actually fires) — the same set CI profiles
               for --check-metrics.  [exact:true] matters: the recovery
               survival curve analyses under the [Independent] model,
               the only caller guaranteed to take the antichain
               evaluator and record the rel.defeat_cuts histogram
               (small uniform analyses dispatch to subset enumeration,
               which never builds the defeat cut family). *)
            let out_dir = Filename.temp_file "obs" ".d" in
            Sys.remove out_dir;
            List.iter
              (fun name ->
                let e = Option.get (Runner.find name) in
                e.Runner.run ~workload:None ~quick:true ~seed:7 ~jobs:2 ~exact:true ~out_dir)
              [ "latency"; "recovery"; "convergence"; "traffic"; "faults" ];
            let json = Obs.Registry.to_json (Obs.snapshot ()) in
            match Obs_report.validate_string json with
            | Ok () -> ()
            | Error missing ->
                Alcotest.failf "missing keys: %s" (String.concat ", " missing)));
    slow_case "fig3 --quick charts its three panels from one pass of 80 trials"
      (fun () ->
        (* 8 graphs at each of 10 granularities, measured once for all
           panels: a second pass per panel would count 160 or more. *)
        let out_dir = Filename.temp_dir "obs" "fig3" in
        let trials =
          with_obs (fun () ->
              let e = Option.get (Runner.find "fig3") in
              e.Runner.run ~workload:None ~quick:true ~seed:2009 ~jobs:1
                ~exact:false ~out_dir;
              Obs.Registry.counter (Obs.snapshot ()) "exp.trials")
        in
        Array.iter
          (fun f -> Sys.remove (Filename.concat out_dir f))
          (Sys.readdir out_dir);
        Sys.rmdir out_dir;
        check_int "exp.trials" 80 trials);
    slow_case "the extension sweeps schedule each (rep, algorithm) once"
      (fun () ->
        (* Quick configs: recovery and traffic have 3 and 2 reps, faults
           2; one schedule per rep serves every x, both traffic profiles,
           the exact survival curve and the eviction drill. *)
        let out_dir = Filename.temp_dir "obs" "sweeps" in
        let calls span run =
          with_obs (fun () ->
              run ();
              match Obs.Registry.span_stats (Obs.snapshot ()) span with
              | Some s -> s.Obs.Registry.calls
              | None -> 0)
        in
        check_int "recovery --exact core.ltf.run" 3
          (calls "core.ltf.run" (fun () ->
               Fig_recovery.run ~out_dir ~jobs:1
                 ~config:{ Fig_recovery.quick with Fig_recovery.exact = true }
                 ()));
        check_int "traffic core.ltf.run" 2
          (calls "core.ltf.run" (fun () ->
               Fig_traffic.run ~out_dir ~jobs:1 ~config:Fig_traffic.quick ()));
        check_int "faults core.rltf.run" 2
          (calls "core.rltf.run" (fun () ->
               Fig_faults.run ~out_dir ~jobs:1 ~config:Fig_faults.quick ()));
        Array.iter
          (fun f -> Sys.remove (Filename.concat out_dir f))
          (Sys.readdir out_dir);
        Sys.rmdir out_dir);
  ]

(* ------------------------------------------------------------------ *)
(* The Algo registry and the deprecated wrappers                       *)
(* ------------------------------------------------------------------ *)

let registry_api_tests =
  [
    case "Scheduler.all exposes LTF and R-LTF" (fun () ->
        check_int "two algorithms" 2 (List.length Scheduler.all);
        List.iter
          (fun name -> check_true name (Scheduler.find name <> None))
          [ "LTF"; "r-ltf"; "  ltf  " ];
        check_true "unknown" (Scheduler.find "nope" = None));
    case "registry entries schedule like the direct calls" (fun () ->
        let prob = paper_problem () in
        let opts = Scheduler.(default |> with_mode Best_effort) in
        let via_registry name =
          match Scheduler.find name with
          | None -> Alcotest.failf "%s not registered" name
          | Some (module A : Scheduler.Algo) -> (
              match A.run ~opts prob with
              | Ok m -> fingerprint m
              | Error f -> Types.failure_to_string f)
        in
        let direct outcome =
          match outcome with
          | Ok m -> fingerprint m
          | Error f -> Types.failure_to_string f
        in
        Alcotest.(check string) "LTF"
          (direct (Ltf.schedule ~opts prob))
          (via_registry "LTF");
        Alcotest.(check string) "R-LTF"
          (direct (Rltf.schedule ~opts prob))
          (via_registry "R-LTF"));
    case "baseline registry covers the Section 3 heuristics" (fun () ->
        check_int "eight heuristics plus the clustered pair" 10
          (List.length Baseline_registry.all);
        check_true "HEFT" (Baseline_registry.find "HEFT [9]" <> None);
        check_true "C-LTF" (Baseline_registry.find "C-LTF" <> None);
        check_true "C-R-LTF" (Baseline_registry.find "C-R-LTF" <> None));
    case "builders and record syntax build the same options" (fun () ->
        let prob = paper_problem () in
        let built = Scheduler.(default |> with_mode Best_effort) in
        (* The canonical record re-exported by Scheduler is the one the
           algorithms consume: literal record syntax and the builders are
           interchangeable. *)
        let literal = { Scheduler.default with mode = Scheduler.Best_effort } in
        let fp opts =
          match Ltf.schedule ~opts prob with
          | Ok m -> fingerprint m
          | Error f -> Types.failure_to_string f
        in
        Alcotest.(check string) "same mapping" (fp built) (fp literal));
  ]

let () =
  Alcotest.run "observability"
    [
      ("registry", registry_tests);
      ("merge", merge_tests);
      ("json", json_tests);
      ("purity", purity_tests);
      ("report", report_tests);
      ("algo-registry", registry_api_tests);
    ]
