(* Monte-Carlo estimates of the crash metrics against the availability
   calculus: the same compiled plan is measured by [runs] random crash
   draws and by the exact enumeration, and the gap |MC - exact| is
   charted against the draw count.  Everything derives from the seed, so
   the curve (and the [check] gate below) is fully deterministic. *)

type config = {
  seed : int;
  reps : int;
  draw_counts : int list;
}

(* R-LTF replicates with [eps] on the paper workload and is measured
   under [crashes] simultaneous fail-stop processors. *)
let crashes = 2
let eps = 1

let default =
  { seed = 2009; reps = 12; draw_counts = [ 10; 30; 100; 300; 1000 ] }

let quick = { default with reps = 4; draw_counts = [ 10; 40; 160 ] }

(* Per-rep errors: for each draw count, |MC defeat rate - exact defeat
   probability| and, when both sides measured one, the relative error of
   the mean degraded latency. *)
type rep_errors = {
  defeat_errors : (int * float) list;
  latency_errors : (int * float) list;
}

(* A rep is a pure function of (config, rep index): the instance, the
   schedule and every crash draw derive from the rep's root stream.  The
   exact side consumes no randomness at all, so inserting it changes no
   sampled value. *)
let run_rep config rep =
  let rng, inst = Fig_common.rep_instance Spec.default ~seed:config.seed ~rep in
  match Fig_common.schedule (Fig_common.contender ~eps Rltf.algo) inst with
  | None -> None
  | Some (mapping, throughput) ->
      let source =
        Crash.Of_stages { plan = Replica_graph.compile mapping; throughput }
      in
      let exact =
        Crash.estimate ~source
          ~method_:(Crash.Exact { crashes; max_evaluations = None })
          ()
      in
      let errors =
        List.map
          (fun draws ->
            (* An independent child stream per draw count: estimates at
               different counts are independent samples, not prefixes of
               one stream, so the curve shows the estimator's spread. *)
            let rng = Rng.split rng in
            let mc =
              Crash.estimate ~source
                ~method_:(Crash.Sampled { crashes; draws; rng })
                ()
            in
            let defeat_err =
              Float.abs (mc.Crash.est_p_defeat -. exact.Crash.est_p_defeat)
            in
            let latency_err =
              match (mc.Crash.est_mean, exact.Crash.est_mean) with
              | Some mc, Some ex when ex > 0.0 ->
                  Some (Float.abs (mc -. ex) /. ex)
              | _ -> None
            in
            (draws, defeat_err, latency_err))
          config.draw_counts
      in
      Some
        {
          defeat_errors = List.map (fun (n, d, _) -> (n, d)) errors;
          latency_errors =
            List.filter_map
              (fun (n, _, l) -> Option.map (fun l -> (n, l)) l)
              errors;
        }

let collect ?(jobs = 1) config =
  Parallel.map_seeded ~jobs (run_rep config) (List.init config.reps Fun.id)
  |> List.filter_map Fun.id

(* Mean error per draw count, one point per count. *)
let error_series ~proj reps =
  List.sort_uniq compare (List.concat_map (fun r -> List.map fst (proj r)) reps)
  |> List.map (fun n ->
         ( float_of_int n,
           Stats.mean (List.concat_map (fun r -> List.assoc_opt n (proj r) |> Option.to_list) reps) ))

let series reps =
  [
    {
      Ascii_plot.label = "defeat |MC-exact|";
      points = error_series ~proj:(fun r -> r.defeat_errors) reps;
    };
    {
      Ascii_plot.label = "latency rel. err";
      points = error_series ~proj:(fun r -> r.latency_errors) reps;
    };
  ]

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  let reps = collect ~jobs config in
  Fig_common.chart
    ~path:(Filename.concat out_dir "fig-convergence.csv")
    ~x_header:"draws"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "MC error vs exact calculus (c=%d, eps=%d, %d/%d graphs scheduled)"
             crashes eps (List.length reps) config.reps;
         x_label = "crash draws";
         y_label = "|MC - exact|";
       })
    (series reps)

(* The CI gate: with everything pinned by the seed this either always
   passes or always fails, so the tolerance is a regression check on the
   calculus/sampler pair, not a flaky statistical test. *)
let tolerance = 0.05

let check ?(jobs = 1) config =
  match collect ~jobs config with
  | [] -> Error "convergence check: no instance could be scheduled"
  | reps -> (
      match error_series ~proj:(fun r -> r.defeat_errors) reps with
      | [] -> Error "convergence check: no draw counts configured"
      | points ->
          let _, first_err = List.hd points in
          let last_n, last_err = List.nth points (List.length points - 1) in
          if Float.is_nan last_err then
            Error "convergence check: error at the largest draw count is NaN"
          else if last_err > tolerance then
            Error
              (Printf.sprintf
                 "convergence check: |MC - exact| = %.4f at %d draws exceeds \
                  tolerance %.4f"
                 last_err (int_of_float last_n) tolerance)
          else if last_err > first_err +. tolerance then
            Error
              (Printf.sprintf
                 "convergence check: error grew along the draw sweep \
                  (%.4f -> %.4f)"
                 first_err last_err)
          else Ok ())
