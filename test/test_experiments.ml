open Test_support

let case = Fixtures.case
let slow_case = Fixtures.slow_case
let check_int = Fixtures.check_int
let check_float = Fixtures.check_float
let check_true = Fixtures.check_true

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats_tests =
  [
    case "mean is nan on an empty sample and propagates nan" (fun () ->
        check_float "mean" 2.0 (Stats.mean [ 1.0; 3.0 ]);
        check_float "known sample" 5.0
          (Stats.mean [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
        check_true "empty" (Float.is_nan (Stats.mean []));
        check_true "nan" (Float.is_nan (Stats.mean [ 1.0; nan ])));
    case "median of odd and even samples" (fun () ->
        check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
        check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]));
    case "quantiles_in_place matches the sorting path" (fun () ->
        let rng = Rng.create ~seed:33 in
        let xs = List.init 1000 (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:100.0) in
        let a = Stats.quantiles xs in
        let b = Stats.quantiles_slice (Array.of_list xs) ~len:1000 in
        check_int "n" a.Stats.q_n b.Stats.q_n;
        check_float "p50" a.Stats.p50 b.Stats.p50;
        check_float "p95" a.Stats.p95 b.Stats.p95;
        check_float "p99" a.Stats.p99 b.Stats.p99;
        check_float "p999" a.Stats.p999 b.Stats.p999);
    (* Selection over a float array reads its elements unboxed: a
       polymorphic selection boxed a float per read and compared
       through the polymorphic order, about 66 000 words here. *)
    case "quantiles_slice over 300 floats allocates a bounded few words"
      (fun () ->
        let rng = Rng.create ~seed:35 in
        let xs = Array.init 300 (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:100.0) in
        let best = ref infinity in
        for _ = 1 to 3 do
          let a = Array.copy xs in
          let before = Gc.minor_words () in
          ignore (Sys.opaque_identity (Stats.quantiles_slice a ~len:300));
          best := Float.min !best (Gc.minor_words () -. before)
        done;
        if !best > 200.0 then
          Alcotest.failf "%.0f minor words (ceiling 200)" !best);
    case "quantiles_in_place on an empty array is all-nan" (fun () ->
        let q = Stats.quantiles_slice [||] ~len:0 in
        check_int "n" 0 q.Stats.q_n;
        check_true "nan" (Float.is_nan q.Stats.p50));
    case "reservoir is exact below its capacity" (fun () ->
        let rng = Rng.create ~seed:34 in
        let r =
          Stats.reservoir_create ~cap:256 ~rand_int:(fun b -> Rng.int rng b)
        in
        let xs = List.init 200 (fun i -> float_of_int ((i * 37) mod 200)) in
        List.iter (Stats.reservoir_add r) xs;
        Stats.reservoir_add r nan;
        check_int "nan skipped" 200 (Stats.reservoir_count r);
        let a = Stats.quantiles xs and b = Stats.reservoir_quantiles r in
        check_int "n" a.Stats.q_n b.Stats.q_n;
        check_float "p50" a.Stats.p50 b.Stats.p50;
        check_float "p95" a.Stats.p95 b.Stats.p95;
        check_float "p999" a.Stats.p999 b.Stats.p999);
    case "reservoir beyond capacity keeps the true count and sane bounds"
      (fun () ->
        let rng = Rng.create ~seed:35 in
        let r =
          Stats.reservoir_create ~cap:64 ~rand_int:(fun b -> Rng.int rng b)
        in
        for i = 1 to 10_000 do
          Stats.reservoir_add r (float_of_int i)
        done;
        check_int "count" 10_000 (Stats.reservoir_count r);
        let q = Stats.reservoir_quantiles r in
        check_int "n is the stream count" 10_000 q.Stats.q_n;
        check_true "p50 within range" (q.Stats.p50 >= 1.0 && q.Stats.p50 <= 10_000.0);
        check_true "quantiles ordered"
          (q.Stats.p50 <= q.Stats.p95 && q.Stats.p95 <= q.Stats.p999));
  ]

(* ------------------------------------------------------------------ *)
(* CSV and tables                                                      *)
(* ------------------------------------------------------------------ *)

let output_tests =
  [
    case "csv escaping" (fun () ->
        Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
        Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
        Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b"));
    case "csv round trip on disk" (fun () ->
        let path = Filename.temp_file "streamsched" ".csv" in
        Csv.write ~path ~header:[ "a"; "b" ] [ [ "1"; "x,y" ]; [ "2"; "z" ] ];
        let ic = open_in path in
        let lines = List.init 3 (fun _ -> input_line ic) in
        close_in ic;
        Sys.remove path;
        Alcotest.(check (list string))
          "content"
          [ "a,b"; "1,\"x,y\""; "2,z" ]
          lines);
    case "csv of floats renders NaN as empty" (fun () ->
        let path = Filename.temp_file "streamsched" ".csv" in
        Fig_common.chart ~path ~x_header:"x" (Fig_common.Line "a NaN cell")
          [ { Ascii_plot.label = "y"; points = [ (0.5, nan); (1.0, 1.5) ] } ];
        let ic = open_in path in
        let lines = List.init 3 (fun _ -> input_line ic) in
        close_in ic;
        Sys.remove path;
        Alcotest.(check (list string)) "content" [ "x,y"; "0.5,"; "1,1.5" ] lines);
    case "table alignment pads columns" (fun () ->
        let s = Ascii_table.render ~header:[ "col"; "x" ] [ [ "a"; "1" ]; [ "long"; "2" ] ] in
        check_true "has rule" (contains s "---");
        check_true "rows present" (contains s "long"));
    case "one column list renders the table and the csv" (fun () ->
        let columns =
          [
            Fig_common.text "name" fst;
            Fig_common.num "mean value" "mean" "%.1f" "%.3f" (fun (_, (v, _)) -> v);
            Fig_common.count "hits" "hits" ~total:4 (fun (_, (_, n)) -> n);
          ]
        in
        let rows = [ ("a", (1.25, 3)); ("b,c", (10.0, 0)) ] in
        let path = Filename.temp_file "streamsched" ".csv" in
        Fig_common.table ~path columns rows;
        let csv = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        Alcotest.(check string)
          "csv" "name,mean,hits\na,1.250,3\n\"b,c\",10.000,0\n" csv;
        Alcotest.(check string)
          "shown cells"
          "name  mean value  hits\n\
           ----  ----------  ----\n\
           a     1.2         3/4\n\
           b,c   10.0        0/4\n"
          (Ascii_table.render
             ~header:(List.map (fun c -> c.Fig_common.head) columns)
             (List.map
                (fun r -> List.map (fun c -> c.Fig_common.show r) columns)
                rows)));
    case "table pads ragged rows" (fun () ->
        let s = Ascii_table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
        check_true "renders" (String.length s > 0));
    case "plot renders data and legend" (fun () ->
        let s =
          Ascii_plot.render ~width:20 ~height:8 ~title:"t"
            [
              { Ascii_plot.label = "up"; points = [ (0.0, 0.0); (1.0, 1.0) ] };
              { Ascii_plot.label = "down"; points = [ (0.0, 1.0); (1.0, 0.0) ] };
            ]
        in
        check_true "title" (contains s "t\n");
        check_true "legend up" (contains s "up");
        check_true "glyph" (contains s "*"));
    case "plot with no data" (fun () ->
        let s = Ascii_plot.render ~title:"empty" [ { Ascii_plot.label = "s"; points = [] } ] in
        check_true "message" (contains s "no data"));
    case "plot skips NaN points" (fun () ->
        let s =
          Ascii_plot.render ~width:10 ~height:4 ~title:"nan"
            [ { Ascii_plot.label = "s"; points = [ (0.0, nan); (1.0, 2.0) ] } ]
        in
        check_true "renders" (String.length s > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Figure machinery                                                    *)
(* ------------------------------------------------------------------ *)

let tiny_config ~eps ~crashes =
  {
    (Fig_common.quick ~eps ~crashes) with
    Fig_common.graphs_per_point = 3;
    granularities = [ 0.6; 1.4 ];
  }

let fig_tests =
  [
    slow_case "collect produces one sample per (g, graph)" (fun () ->
        let config = tiny_config ~eps:1 ~crashes:1 in
        let samples = Fig_common.collect config in
        check_int "count" 6 (List.length samples);
        let grouped = Fig_common.by_granularity samples in
        check_int "two granularities" 2 (List.length grouped);
        List.iter
          (fun (_, ss) -> check_int "three graphs" 3 (List.length ss))
          grouped);
    slow_case "bounds dominate simulated latencies" (fun () ->
        let config = tiny_config ~eps:1 ~crashes:0 in
        List.iter
          (fun s ->
            let open Fig_common in
            if not (Float.is_nan (ltf_sim s) || Float.is_nan (ltf_bound s))
            then check_true "ltf bound" (ltf_sim s <= ltf_bound s +. 1e-6);
            if not (Float.is_nan (rltf_sim s) || Float.is_nan (rltf_bound s))
            then check_true "rltf bound" (rltf_sim s <= rltf_bound s +. 1e-6))
          (Fig_common.collect config));
    slow_case "crashes never speed things up" (fun () ->
        let config = tiny_config ~eps:1 ~crashes:1 in
        List.iter
          (fun s ->
            let open Fig_common in
            if not (Float.is_nan (ltf_sim s) || Float.is_nan (ltf_crash s))
            then check_true "ltf crash" (ltf_crash s >= ltf_sim s -. 1e-6);
            if not (Float.is_nan (rltf_sim s) || Float.is_nan (rltf_crash s))
            then check_true "rltf crash" (rltf_crash s >= rltf_sim s -. 1e-6))
          (Fig_common.collect config));
    slow_case "R-LTF crash draws are independent of LTF's outcome" (fun () ->
        (* Regression: measure_algo used to consume crash draws from one
           shared stream, so R-LTF's sample shifted with the number of
           draws LTF made (none at all when LTF errored out).  Each
           algorithm now measures on its own child stream, derived as in
           Fig_common.run_trial. *)
        (* Enough draws that some survive: two crashes defeat this
           mapping about half the time, so four draws came back all
           defeated (a NaN mean) on some streams. *)
        let config = { (Fig_common.quick ~eps:1 ~crashes:2) with Fig_common.crash_draws = 16 } in
        let throughput = Paper_workload.throughput ~eps:1 in
        let inst = Fixtures.paper_instance () in
        let prob =
          Types.problem ~dag:inst.Paper_workload.dag
            ~platform:inst.Paper_workload.plat ~eps:1 ~throughput
        in
        let mapping = Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf prob in
        let ltf_outcome =
          Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob
        in
        check_true "fixture: LTF schedules and draws crashes"
          (match ltf_outcome with Ok _ -> true | Error _ -> false);
        let streams () =
          let rng = Rng.create ~seed:4242 in
          let ltf_rng = Rng.split rng in
          let rltf_rng = Rng.split rng in
          (ltf_rng, rltf_rng)
        in
        let rltf_crash ~ltf_outcome =
          let ltf_rng, rltf_rng = streams () in
          ignore (Fig_common.measure_algo config ~throughput ~rng:ltf_rng ltf_outcome);
          let r =
            Fig_common.measure_algo config ~throughput ~rng:rltf_rng (Ok mapping)
          in
          r.Fig_common.crash
        in
        let with_ltf_ok = rltf_crash ~ltf_outcome in
        let with_ltf_failed = rltf_crash ~ltf_outcome:(Error ()) in
        check_true "crash latency is not NaN" (not (Float.is_nan with_ltf_ok));
        check_true "identical crash latency"
          (Int64.equal
             (Int64.bits_of_float with_ltf_ok)
             (Int64.bits_of_float with_ltf_failed)));
    slow_case "parallel collect matches sequential field-for-field" (fun () ->
        let config = tiny_config ~eps:1 ~crashes:1 in
        let sequential = Fig_common.collect ~jobs:1 config in
        let parallel = Fig_common.collect ~jobs:3 config in
        check_int "same length" (List.length sequential) (List.length parallel);
        List.iter2
          (fun (x : Fig_common.sample) (y : Fig_common.sample) ->
            let open Fig_common in
            let same u v =
              Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)
            in
            check_true "granularity" (same x.granularity y.granularity);
            check_true "ltf"
              (same (ltf_sim x) (ltf_sim y) && same (ltf_crash x) (ltf_crash y));
            check_true "rltf"
              (same (rltf_sim x) (rltf_sim y)
              && same (rltf_crash x) (rltf_crash y));
            check_true "ff" (same (ff_sim x) (ff_sim y));
            check_true "meets"
              (x.ltf.meets = y.ltf.meets && x.rltf.meets = y.rltf.meets))
          sequential parallel);
    slow_case "collect is deterministic in the seed" (fun () ->
        let config = tiny_config ~eps:1 ~crashes:0 in
        let a = Fig_common.collect config and b = Fig_common.collect config in
        List.iter2
          (fun (x : Fig_common.sample) (y : Fig_common.sample) ->
            let same u v = (Float.is_nan u && Float.is_nan v) || u = v in
            check_true "identical" (same (Fig_common.ltf_sim x) (Fig_common.ltf_sim y));
            check_true "identical bound"
              (same (Fig_common.rltf_bound x) (Fig_common.rltf_bound y)))
          a b);
    case "mean series handles all-NaN groups" (fun () ->
        let samples =
          [
            {
              Fig_common.granularity = 1.0;
              ltf = Fig_common.no_result;
              rltf = Fig_common.no_result;
              ff_sim = nan;
            };
          ]
        in
        let s = Fig_common.mean_series ~label:"x" Fig_common.ltf_sim samples in
        match s.Ascii_plot.points with
        | [ (g, y) ] ->
            check_float "granularity" 1.0 g;
            check_true "nan mean" (Float.is_nan y)
        | _ -> Alcotest.fail "one point expected");
    case "runner registry is complete" (fun () ->
        (* The full list, in the order runner.mli documents. *)
        Alcotest.(check (list string)) "names"
          [ "fig3"; "fig4"; "examples"; "baselines"; "complexity";
            "symmetric"; "ablation"; "pipeline"; "optgap"; "families";
            "topology"; "cost"; "recovery"; "traffic"; "faults";
            "convergence"; "scaling"; "latency" ]
          Runner.names;
        List.iter
          (fun name -> check_true name (Runner.find name <> None))
          Runner.names;
        check_true "unknown name" (Runner.find "fig9z" = None));
    slow_case "pipeline validation sustains the desired throughput" (fun () ->
        let rows =
          Fig_pipeline.run ~out_dir:(Filename.get_temp_dir_name ()) ~graphs:2
            ~jobs:1 ()
        in
        let desired_throughput = Paper_workload.throughput ~eps:1 in
        List.iter
          (fun (_, samples) ->
            let mean proj = Stats.mean_by proj samples in
            let open Fig_pipeline in
            check_true "within 10% of desired"
              (mean (fun s -> s.sustained) >= 0.9 *. desired_throughput);
            check_true "steady latency below the stage model"
              (mean (fun s -> s.steady_latency)
              <= mean (fun s -> s.stage_model) +. 1e-6))
          rows);
    slow_case "ablation rows cover every configuration" (fun () ->
        let rows =
          Fig_ablation.run ~out_dir:(Filename.get_temp_dir_name ()) ~graphs:2
            ~jobs:1 ()
        in
        check_int "rows" (List.length Fig_ablation.configurations)
          (List.length rows));
    slow_case "optimality-gap ratios are at least one" (fun () ->
        let rows =
          Fig_optgap.run ~out_dir:(Filename.get_temp_dir_name ()) ~graphs:3 ()
        in
        check_true "has rows" (rows <> []);
        List.iter
          (fun (name, samples) ->
            check_true (name ^ " ratio >= 1")
              (Stats.mean_by (fun s -> s.Fig_optgap.ratio) samples
              >= 1.0 -. 1e-9))
          rows);
    slow_case "topology experiment covers every (topology, algorithm) pair"
      (fun () ->
        let rows =
          Fig_robustness.topology ~out_dir:(Filename.get_temp_dir_name ())
            ~graphs:2 ~jobs:1 ()
        in
        check_int "six rows" 6 (List.length rows));
    slow_case "cost experiment keeps fractions within [0, 1]" (fun () ->
        let rows =
          Fig_cost.run ~out_dir:(Filename.get_temp_dir_name ()) ~graphs:1
            ~jobs:1 ()
        in
        List.iter
          (fun (_, samples) ->
            let f = Stats.mean_by (fun s -> s.Fig_cost.cost_fraction) samples in
            check_true "fraction" (f > 0.0 && f <= 1.0 +. 1e-9))
          rows);
    case "table figures run on zero graphs" (fun () ->
        (* An empty sample has no mean: every table figure prints [nan]
           or drops the row instead of raising, and ablation keeps one
           row per configuration. *)
        let out_dir = Filename.temp_dir "streamsched" "zero" in
        let graphs = 0 and jobs = 1 in
        ignore (Fig_baselines.run ~out_dir ~graphs ~jobs ());
        ignore (Fig_symmetric.run ~out_dir ~graphs ~jobs ());
        ignore (Fig_pipeline.run ~out_dir ~graphs ~jobs ());
        ignore (Fig_optgap.run ~out_dir ~graphs ());
        ignore (Fig_robustness.families ~out_dir ~graphs ~jobs ());
        ignore (Fig_robustness.topology ~out_dir ~graphs ~jobs ());
        ignore (Fig_cost.run ~out_dir ~graphs ~jobs ());
        let rows = Fig_ablation.run ~out_dir ~graphs ~jobs () in
        check_int "ablation rows" 6 (List.length rows);
        List.iter
          (fun (_, samples) -> check_int "no samples" 0 (List.length samples))
          rows;
        Array.iter
          (fun f -> Sys.remove (Filename.concat out_dir f))
          (Sys.readdir out_dir);
        Sys.rmdir out_dir);
    slow_case "table figures write pinned csvs" (fun () ->
        (* Digests recorded before the table figures shared one writer
           and one robustness sweep, before the series figures (at their
           quick configs) shared one chart writer and one sweep skeleton,
           before each paper figure became one sample pass, and before
           the recovery, traffic and fault sweeps scheduled each (rep,
           contender) once and replayed its stream at every x, and before
           the table figures measured each graph once on one graph pass
           and kept per-key samples instead of summary rows, and (the
           eps = 3 fig4 panels) before the placement step judged its
           candidates in state-owned buffers: a refactor must not move a
           byte. *)
        let out_dir = Filename.temp_dir "streamsched" "tables" in
        ignore (Fig_baselines.run ~out_dir ~graphs:2 ~jobs:1 ());
        ignore (Fig_symmetric.run ~out_dir ~graphs:1 ~jobs:1 ());
        ignore (Fig_cost.run ~out_dir ~graphs:1 ~jobs:1 ());
        ignore (Fig_ablation.run ~out_dir ~graphs:2 ~jobs:1 ());
        ignore (Fig_pipeline.run ~out_dir ~graphs:2 ~jobs:1 ());
        ignore (Fig_optgap.run ~out_dir ~graphs:2 ());
        ignore (Fig_robustness.families ~out_dir ~graphs:2 ~jobs:1 ());
        ignore (Fig_robustness.topology ~out_dir ~graphs:2 ~jobs:1 ());
        Fig_latency.run ~out_dir ~jobs:1
          ~config:(Fig_common.quick ~eps:1 ~crashes:1) ();
        Fig_latency.run ~out_dir ~jobs:1
          ~config:(Fig_common.quick ~eps:3 ~crashes:2) ();
        Fig_recovery.run ~out_dir ~jobs:1
          ~config:{ Fig_recovery.quick with Fig_recovery.exact = true } ();
        Fig_traffic.run ~out_dir ~jobs:1 ~config:Fig_traffic.quick ();
        Fig_faults.run ~out_dir ~jobs:1 ~config:Fig_faults.quick ();
        Fig_convergence.run ~out_dir ~jobs:1 ~config:Fig_convergence.quick ();
        List.iter
          (fun (file, digest) ->
            let path = Filename.concat out_dir file in
            Alcotest.(check string) file digest
              (Digest.to_hex (Digest.file path));
            Sys.remove path)
          [
            ("fig-baselines.csv", "f0df3969b27564c3bcb7cab08f48a363");
            ("fig-symmetric.csv", "90f4a316e4565f1db96c017b4afa8abe");
            ("fig-cost.csv", "1ac7bdc1e2b9746e489d4cb90890774b");
            ("fig-ablation.csv", "b9a340d79f855ab1eaca838cd4b26ec4");
            ("fig-pipeline.csv", "5ba4dd02880047adccc0b505758ce740");
            ("fig-optgap.csv", "13e5297e01d0fc832c0144d923a5daf7");
            ("fig-families.csv", "b1fec7801b9d2b11d0cef3a6242196e7");
            ("fig-topology.csv", "c398cdd416399895ab8fdadd81eb8862");
            ("fig-latency-bounds-eps1.csv", "ed2271c49c0363dfb2fb6f78cbc76ec5");
            ("fig-latency-crash1-eps1.csv", "d0da5d9fbf7d93b5242b57c52c49695d");
            ("fig-overhead-eps1.csv", "1415a68eeecffaaea5192e85041941ce");
            ("fig-overhead-defeats-eps1.csv", "92f9252a7c6bc6c8f39fdde51ccc741f");
            ("fig-latency-bounds-eps3.csv", "047dc344cf5d3dac6a6b985440db9045");
            ("fig-latency-crash2-eps3.csv", "3adff30b6d3a374b6fc28fbe5882e129");
            ("fig-overhead-eps3.csv", "324a25ea0b1b2e59882b24cc1eda7b3e");
            ("fig-overhead-defeats-eps3.csv", "92f9252a7c6bc6c8f39fdde51ccc741f");
            ("fig-recovery-availability.csv", "5652eaa27b2a0f33390b035fd73b5e82");
            ("fig-recovery-latency.csv", "2a00667f6586ddfdb2f7c1dd1fdcf14a");
            ("fig-recovery-outages.csv", "e55f72b559671297ebe940f24f1b920a");
            ("fig-recovery-exact-survival.csv", "00fefe1e3a359bfbf19bb056115bfa72");
            ("fig-traffic-latency-poisson.csv", "449af5f05764d901da5d834e25c5783e");
            ("fig-traffic-queue-poisson.csv", "ac73641de74cd7f19b4314ac913c7f45");
            ("fig-traffic-drops-poisson.csv", "79ec1d4fbc3396dc9ec9afc6601a985e");
            ("fig-traffic-latency-mmpp.csv", "2c035e7f4a22232cac2e732dd046ea73");
            ("fig-traffic-queue-mmpp.csv", "6b3ccf1523a7b91b3b5ef55b3378a699");
            ("fig-traffic-drops-mmpp.csv", "f2da7a3134349520e7087001dec06c2f");
            ("fig-faults-retry-latency.csv", "11f5e0701c65a0ed6d8210c002153f42");
            ("fig-faults-retry-delivered.csv", "b62bf2d0b28dd92cc2fbea23e2506c5e");
            ("fig-faults-retry-count.csv", "eafbba3069629a1c42075c7157d61783");
            ("fig-faults-gray.csv", "6026db05a60391d17932ed9d9b293708");
            ("fig-faults-correlated.csv", "0b7d48a237cd93efd81d9d0001e4f337");
            ("fig-convergence.csv", "9442f05b361a5213d2528eb6eb030c91");
          ];
        Sys.rmdir out_dir);
    case "paper examples produce comparable rows" (fun () ->
        check_int "fig1 rows" 3 (List.length (Paper_examples.fig1 ()));
        check_int "fig2 rows" 4 (List.length (Paper_examples.fig2 ())));
    case "fig1 pipelined scenario matches the paper exactly" (fun () ->
        let rows = Paper_examples.fig1 () in
        let pipelined = List.nth rows 2 in
        check_true "S=2 T=1/30 L=90"
          (contains pipelined.Paper_examples.measured "S = 2"
          && contains pipelined.Paper_examples.measured "1/30"
          && contains pipelined.Paper_examples.measured "L = 90"));
  ]

let () =
  Alcotest.run "stream_experiments"
    [
      ("stats", stats_tests);
      ("output", output_tests);
      ("figures", fig_tests);
    ]
