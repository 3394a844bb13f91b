(* The hazard is swept in crashes per processor per 1000 injected items,
   and the horizon / reconfiguration delay are expressed in items too:
   different algorithms run at different periods (ε = 0 baselines inject
   twice as fast as an ε = 1 schedule under the 1/(10(ε+1)) rule), and
   item-denominated knobs expose every algorithm to the same failure
   pressure per unit of delivered work. *)
type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  hazards : float list;  (** crashes per processor per 1000 items *)
  horizon_items : int;
  exact : bool;  (** also emit the analytic no-recovery survival curve *)
}

(* Downtime per recovery attempt, in items. *)
let reconfig_items = 2.0

(* Replication degree for LTF / R-LTF. *)
let eps = 1

let default =
  {
    seed = 2009;
    reps = 10;
    hazards = [ 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0 ];
    horizon_items = 200;
    exact = false;
  }

let quick =
  {
    default with
    reps = 3;
    hazards = [ 0.1; 0.5; 2.0 ];
    horizon_items = 60;
  }

(* What one algorithm's timeline contributed to one sweep point. *)
type point = {
  availability : float;
  degraded_latency : float;
  had_outage : float;  (** 0/1, so the mean is the outage rate *)
  survival : float;  (** exact no-recovery survival; [nan] unless [exact] *)
}

(* Every hazard replays the same stream (common random numbers): the
   failure generator's quanta are identical across sweep points, so each
   curve moves along the sweep because of the rate, never because of
   resampling noise.  The mapping's effective period converts the
   item-denominated knobs into the absolute time units the ops simulator
   runs in. *)
let measure config mapping ~throughput =
  let p = Fig_common.service_period mapping ~throughput in
  let analysis =
    if config.exact then Some (Reliability.analyze mapping) else None
  in
  fun hazard_per_kitem ~rng ->
    let ops_config =
      {
        Stream_ops.horizon = float_of_int config.horizon_items *. p;
        hazard =
          Failure_gen.uniform ~lambda:(hazard_per_kitem /. (1000.0 *. p));
        reconfig_delay = reconfig_items *. p;
        max_items_per_epoch = config.horizon_items + 8;
        overload = None;
        faults = None;
      }
    in
    let report = Stream_ops.run ~config:ops_config ~rng ~throughput mapping in
    (* Analytic no-recovery reference: each processor fails within the
       horizon independently with q = 1 - exp(-lambda), lambda = hazard *
       horizon / 1000 (the same Poisson process Failure_gen draws from),
       and the calculus gives the exact probability that the static
       schedule is never defeated.  Timelines with recovery must sit
       above this curve; the gap is what recovery buys. *)
    let survival t =
      let lambda =
        hazard_per_kitem *. float_of_int config.horizon_items /. 1000.0
      in
      let q = 1.0 -. exp (-.lambda) in
      Reliability.survival_probability t (Reliability.Independent (fun _ -> q))
    in
    {
      availability = report.Stream_ops.availability;
      degraded_latency = report.Stream_ops.degraded_mean_latency;
      had_outage = (if report.Stream_ops.outage then 1.0 else 0.0);
      survival = Option.fold ~none:nan ~some:survival analysis;
    }

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  let sweep =
    Fig_common.sweep ~jobs ~seed:config.seed ~eps ~xs:config.hazards
      ~reps:config.reps (measure config)
  in
  let chart name heading proj =
    Fig_common.chart
      ~path:(Filename.concat out_dir ("fig-recovery-" ^ name ^ ".csv"))
      ~x_header:"crashes_per_proc_per_kitem" heading
      (Fig_common.series_by sweep [ ("", proj) ])
  in
  let plot title y_label =
    Fig_common.Plot { title; x_label = "crashes/proc/1000 items"; y_label }
  in
  chart "availability"
    (plot
       (Printf.sprintf
          "Availability vs failure pressure (eps=%d, %d items, %d graphs/point)"
          eps config.horizon_items config.reps)
       "availability")
    (fun p -> p.availability);
  chart "latency"
    (plot "Mean degraded-mode latency vs failure pressure" "latency")
    (fun p -> p.degraded_latency);
  chart "outages" (Fig_common.Line "Outage rate (% of timelines):") (fun p ->
      p.had_outage *. 100.0);
  if config.exact then
    Fig_common.chart
      ~path:(Filename.concat out_dir "fig-recovery-exact-survival.csv")
      ~x_header:"crashes_per_proc_per_kitem"
      (plot "Exact no-recovery survival probability (analytic, same instances)"
         "P(never defeated)")
      (Fig_common.series_by sweep [ ("", fun p -> p.survival) ])
