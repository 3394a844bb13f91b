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

(* A deliberately smaller workload than the figure sweeps: an operations
   timeline replays hundreds of items through the event-driven engine,
   so the per-trial cost is a long horizon rather than a big graph. *)
let spec =
  Spec.paper ~name:"paper-recovery"
    {
      Paper_workload.default_spec with
      Paper_workload.tasks_range = (30, 60);
      m = 12;
    }

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
}

let measure config ~hazard_per_kitem ~rng contender inst =
  match Fig_common.schedule contender inst with
  | None -> None
  | Some (mapping, throughput) ->
      (* The mapping's effective period converts the item-denominated
         knobs into the absolute time units the ops simulator runs in. *)
      let p = Fig_common.service_period mapping ~throughput in
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
      Some
        {
          availability = report.Stream_ops.availability;
          degraded_latency = report.Stream_ops.degraded_mean_latency;
          had_outage = (if report.Stream_ops.outage then 1.0 else 0.0);
        }

type trial = { hazard_per_kitem : float; rep : int }

(* The trial seed ignores the hazard on purpose: with equal RNG state the
   failure generator's quanta are identical across sweep points (common
   random numbers), so each curve moves along the sweep because of the
   rate, never because of resampling noise. *)
let run_trial config t =
  let rng, inst =
    Fig_common.rep_instance spec ~seed:config.seed ~rep:t.rep
  in
  Fig_common.measure_contenders ~eps ~rng inst
    (measure config ~hazard_per_kitem:t.hazard_per_kitem)

let series config results proj =
  Fig_common.series_by ~eps ~xs:config.hazards
    ~x_of:(fun t -> t.hazard_per_kitem) results [ ("", proj) ]

let csv = Fig_latency.csv_of_series ~x_header:"crashes_per_proc_per_kitem"

(* Analytic no-recovery reference: each processor fails within the
   horizon independently with q = 1 - exp(-lambda), lambda = hazard *
   horizon / 1000 (the same Poisson process Failure_gen draws from), and
   the calculus gives the exact probability that the static schedule is
   never defeated.  Timelines with recovery must sit above this curve;
   the gap is what recovery buys. *)
let exact_survival_series config =
  let contenders = Fig_common.contenders ~eps in
  (* Same instances as [run_trial], so the analytic curve covers exactly
     the graphs the timelines ran on. *)
  let analyses =
    List.init config.reps (fun rep ->
        let _, inst =
          Fig_common.rep_instance spec ~seed:config.seed ~rep
        in
        List.map
          (fun (c : Fig_common.contender) ->
            ( c.label,
              Option.map
                (fun (mapping, _) -> Reliability.analyze mapping)
                (Fig_common.schedule c inst) ))
          contenders)
  in
  List.map
    (fun (c : Fig_common.contender) ->
      let points =
        List.map
          (fun hazard ->
            let lambda =
              hazard *. float_of_int config.horizon_items /. 1000.0
            in
            let q = 1.0 -. exp (-.lambda) in
            let survivals =
              List.filter_map
                (fun per_algo ->
                  match List.assoc c.label per_algo with
                  | None -> None
                  | Some t ->
                      Some
                        (Reliability.survival_probability t
                           (Reliability.Independent (fun _ -> q))))
                analyses
            in
            (hazard, Stats.mean_by Fun.id survivals))
          config.hazards
      in
      { Ascii_plot.label = c.label; points })
    contenders

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  let trials =
    List.concat_map
      (fun hazard_per_kitem ->
        List.init config.reps (fun rep -> { hazard_per_kitem; rep }))
      config.hazards
  in
  (* A trial is a pure function of its record (the RNG stream derives
     from the seed and rep alone), so the sweep runs on the domain pool
     with bit-identical output for every [jobs]. *)
  let measured = Parallel.map_seeded ~jobs (run_trial config) trials in
  let results = List.combine trials measured in
  let availability = series config results (fun p -> p.availability) in
  let latency = series config results (fun p -> p.degraded_latency) in
  let outages = series config results (fun p -> p.had_outage *. 100.0) in
  Ascii_plot.print
    ~title:
      (Printf.sprintf
         "Availability vs failure pressure (eps=%d, %d items, %d graphs/point)"
         eps config.horizon_items config.reps)
    ~x_label:"crashes/proc/1000 items" ~y_label:"availability" availability;
  Fig_latency.table_of_series availability;
  Ascii_plot.print
    ~title:"Mean degraded-mode latency vs failure pressure"
    ~x_label:"crashes/proc/1000 items" ~y_label:"latency" latency;
  Fig_latency.table_of_series latency;
  Printf.printf "Outage rate (%% of timelines):\n";
  Fig_latency.table_of_series outages;
  csv (Filename.concat out_dir "fig-recovery-availability.csv") availability;
  csv (Filename.concat out_dir "fig-recovery-latency.csv") latency;
  csv (Filename.concat out_dir "fig-recovery-outages.csv") outages;
  if config.exact then begin
    let survival = exact_survival_series config in
    Ascii_plot.print
      ~title:
        "Exact no-recovery survival probability (analytic, same instances)"
      ~x_label:"crashes/proc/1000 items" ~y_label:"P(never defeated)" survival;
    Fig_latency.table_of_series survival;
    csv (Filename.concat out_dir "fig-recovery-exact-survival.csv") survival
  end;
  (availability, latency)
