(* Fault-injection sweep (Extension M): transient faults with
   retry/backoff, gray failures, and correlated failure domains.

   The paper's reliability experiments only know permanent fail-silent
   crashes.  This figure exercises the three fault classes the
   simulator's fault model adds:

   - Part A re-runs the same closed-system stream under a grid of
     per-attempt transient fault rates x retry budgets.  Retries are
     charged against the one-port model, so latency climbs with the
     fault rate at every fixed budget, and a bigger budget trades
     latency for delivery (fewer exhausted work units).
   - Part B stretches the busiest processor by a straggler factor (a
     gray failure): the whole-stream mean latency degrades smoothly,
     with no crash and no lost item.
   - Part C sweeps the correlation strength of rack-level common
     shocks at a fixed per-processor total failure probability: the
     exact Marshall-Olkin calculus (Reliability.Correlated) against a
     Monte-Carlo estimate over the same model, with the independent
     model of equal marginals as the baseline the correlation defeats.
   - Part D drives the operations layer: a processor stuck in a
     permanent exec-fault window exhausts retries epoch after epoch
     until the escalation policy evicts it through the normal recovery
     chain. *)

type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  fault_rates : float list;  (** per-attempt transient fault probability *)
  retry_budgets : int list;  (** max_retries values of the A sweep *)
  straggler_factors : float list;  (** gray slowdown factors of the B sweep *)
  rhos : float list;  (** correlation strengths of the C sweep *)
  mc_draws : int;  (** Monte-Carlo draws per C point *)
  n_items : int;  (** items simulated per A/B run *)
}

(* Part C's failure model: racks of [rack_size] processors, each
   processor failing with total probability [p_total]. *)
let p_total = 0.08
let rack_size = 3

(* Replication degree for R-LTF. *)
let eps = 1

let default =
  {
    seed = 2009;
    reps = 4;
    fault_rates = [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
    retry_budgets = [ 0; 1; 3; 5 ];
    straggler_factors = [ 1.0; 1.5; 2.0; 4.0 ];
    rhos = [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
    mc_draws = 2000;
    n_items = 60;
  }

let quick =
  {
    default with
    reps = 2;
    fault_rates = [ 0.0; 0.05; 0.2 ];
    retry_budgets = [ 0; 3 ];
    straggler_factors = [ 1.0; 2.0 ];
    rhos = [ 0.0; 0.5; 1.0 ];
    mc_draws = 400;
    n_items = 24;
  }

(* ---- shared helpers ---------------------------------------------------- *)

let busiest_proc mapping =
  let n = Platform.size (Mapping.platform mapping) in
  let load = Array.make n 0 in
  Mapping.iter mapping (fun r ->
      load.(r.Replica.proc) <- load.(r.Replica.proc) + 1);
  let best = ref 0 in
  Array.iteri (fun u c -> if c > load.(!best) then best := u) load;
  !best

(* ---- Part A: retry budget x fault rate --------------------------------- *)

type retry_point = {
  rp_latency : float;  (** mean delivered-item sojourn *)
  rp_delivered : float;  (** fraction of items delivered *)
  rp_retries : float;  (** retries per injected item *)
}

let measure_retry config ~fault_seed ~budget ~rate prog ~period =
  let retry =
    Faults.Backoff.make ~base_delay:(0.25 *. period) ~max_retries:budget ()
  in
  let transient =
    {
      Faults.Transient.none with
      Faults.Transient.exec_rate = rate;
      comm_rate = rate;
      seed = fault_seed;
    }
  in
  let faults = { Faults.none with Faults.transient; retry } in
  let r =
    Engine.simulate
      ~config:
        (Engine.Run.with_faults faults
           (Engine.Run.closed ~n_items:config.n_items ~period ()))
      prog
  in
  let sojourns = Engine.sojourns r in
  {
    rp_latency = Stats.mean sojourns;
    rp_delivered =
      float_of_int (List.length sojourns) /. float_of_int config.n_items;
    rp_retries =
      float_of_int r.Engine.faults.Engine.retries
      /. float_of_int config.n_items;
  }

(* ---- Part B: gray stragglers ------------------------------------------- *)

let measure_gray config ~factor prog ~period ~proc =
  (* The window outlives any run, so the whole stream is degraded.
     [is_none] is false even at factor 1.0: that point pays the
     instrumented path and doubles as a fast-path equivalence check. *)
  let gray =
    {
      Faults.Gray.stragglers =
        [ (proc, { Faults.Gray.g_from = 0.0; g_until = 1e15; factor }) ];
      links = [];
    }
  in
  let faults = { Faults.none with Faults.gray } in
  let r =
    Engine.simulate
      ~config:
        (Engine.Run.with_faults faults
           (Engine.Run.closed ~n_items:config.n_items ~period ()))
      prog
  in
  Stats.mean (Engine.sojourns r)

(* ---- Part C: correlated failure domains -------------------------------- *)

type corr_point = {
  cp_exact : float;  (** exact correlated defeat probability *)
  cp_mc : float;  (** Monte-Carlo estimate of the same model *)
  cp_independent : float;  (** independent model with equal marginals *)
}

(* Split the total per-processor failure probability between the rack
   shock and the idiosyncratic component so the marginal stays [p_total]
   at every correlation strength: P(dead) = 1-(1-p_shock)(1-p_ind). *)
let split_probability ~p_total ~rho =
  let p_shock = rho *. p_total in
  let p_ind =
    if p_shock >= 1.0 then 0.0 else 1.0 -. ((1.0 -. p_total) /. (1.0 -. p_shock))
  in
  (p_shock, p_ind)

let measure_corr config ~rng ~rho mapping =
  let m = Platform.size (Mapping.platform mapping) in
  let domains = Faults.Domains.racks ~size:rack_size ~procs:m in
  let p_shock, p_ind = split_probability ~p_total ~rho in
  let t = Reliability.analyze mapping in
  let cp_exact =
    Reliability.defeat_probability t
      (Reliability.Correlated
         {
           domains;
           p_shock = (fun _ -> p_shock);
           p_fail = (fun _ -> p_ind);
         })
  in
  let cp_independent =
    Reliability.defeat_probability t
      (Reliability.Independent (fun _ -> p_total))
  in
  let n_domains = Faults.Domains.count domains in
  (* one evaluator, and a mask every draw rewrites whole *)
  let eval = Replica_graph.evaluator (Replica_graph.compile mapping) in
  let dead = Array.make m false in
  let defeated = ref 0 in
  for _ = 1 to config.mc_draws do
    let shocked = Array.init n_domains (fun _ -> Rng.bool rng p_shock) in
    for u = m - 1 downto 0 do
      dead.(u) <-
        shocked.(Faults.Domains.domain_of domains u) || Rng.bool rng p_ind
    done;
    if Option.is_none (eval dead) then incr defeated
  done;
  {
    cp_exact;
    cp_mc = float_of_int !defeated /. float_of_int config.mc_draws;
    cp_independent;
  }

(* ---- Part D: escalation to eviction ------------------------------------ *)

type drill = {
  dr_evictions : int;
  dr_availability : float;
  dr_decisions : string list;
}

(* A processor stuck in a permanent exec-fault window with a tiny retry
   budget: every instance dispatched to it exhausts, the ledger crosses
   the threshold at the first review, and the operations layer evicts
   the machine through the same chain a crash would take. *)
let eviction_drill config mapping ~throughput =
  let p = Fig_common.service_period mapping ~throughput in
  let victim = busiest_proc mapping in
  let horizon = float_of_int config.n_items *. 8.0 *. p in
  let faults =
    {
      Stream_ops.engine_faults =
        {
          Faults.transient =
            {
              Faults.Transient.none with
              Faults.Transient.exec_windows = [ (victim, 0.0, 1e15) ];
            };
          retry = Faults.Backoff.make ~max_retries:1 ();
          gray = Faults.Gray.none;
        };
      eviction_threshold = 3;
      review_window = float_of_int config.n_items *. p;
    }
  in
  let ops_config =
    {
      Stream_ops.horizon;
      hazard = Failure_gen.uniform ~lambda:0.0;
      reconfig_delay = 2.0 *. p;
      max_items_per_epoch = config.n_items + 8;
      overload = None;
      faults = Some faults;
    }
  in
  let report =
    Stream_ops.run ~config:ops_config
      ~rng:(Rng.create ~seed:(config.seed + 1))
      ~throughput mapping
  in
  {
    dr_evictions = report.Stream_ops.evictions;
    dr_availability = report.Stream_ops.availability;
    dr_decisions =
      List.map
        (fun ep -> Stream_ops.decision_to_string ep.Stream_ops.decision)
        report.Stream_ops.epochs;
  }

(* ---- the sweep --------------------------------------------------------- *)

type trial_result = {
  tr_mapping : Mapping.t;  (** the rep's R-LTF mapping *)
  tr_throughput : float;  (** the throughput it was scheduled for *)
  tr_retry : ((int * float) * retry_point) list;  (** (budget, rate) *)
  tr_gray : (float * float) list;  (** factor -> mean latency *)
  tr_corr : (float * corr_point) list;  (** rho -> defeat rates *)
}

(* One trial = one rep's R-LTF mapping, measured at every sweep point.
   The fault-model draws hash a per-trial seed, and the correlation MC
   draws come from the trial's own stream, so each axis moves because of
   its knob, never because of resampling noise (CRN along every sweep). *)
let run_trial config ~rep ~rng mapping ~throughput =
  let p = Fig_common.service_period mapping ~throughput in
  let prog = Engine.compile mapping in
  let fault_seed = config.seed + (104729 * rep) in
  let tr_retry =
    List.concat_map
      (fun budget ->
        List.map
          (fun rate ->
            ( (budget, rate),
              measure_retry config ~fault_seed ~budget ~rate prog ~period:p ))
          config.fault_rates)
      config.retry_budgets
  in
  let victim = busiest_proc mapping in
  let tr_gray =
    List.map
      (fun factor ->
        (factor, measure_gray config ~factor prog ~period:p ~proc:victim))
      config.straggler_factors
  in
  let tr_corr =
    List.map (fun rho -> (rho, measure_corr config ~rng ~rho mapping)) config.rhos
  in
  { tr_mapping = mapping; tr_throughput = throughput; tr_retry; tr_gray; tr_corr }

(* The mean over the scheduled trials of [find x t] at each [x]; a NaN
   measurement propagates into its point. *)
let series_over trials label xs find =
  {
    Ascii_plot.label;
    points =
      List.map (fun x -> (x, Stats.mean (List.filter_map (find x) trials))) xs;
  }

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  let per_rep =
    Fig_common.rep_pass ~jobs ~seed:config.seed ~reps:config.reps
      [ Fig_common.contender ~eps Rltf.algo ]
      (run_trial config)
  in
  let trials = List.concat_map (List.filter_map snd) per_rep in
  let chart name x_header heading series =
    Fig_common.chart
      ~path:(Filename.concat out_dir ("fig-faults-" ^ name ^ ".csv"))
      ~x_header heading series
  in
  (* Part A: one latency, delivery and retry series per retry budget. *)
  let retry_chart name heading proj =
    chart ("retry-" ^ name) "fault_rate" heading
      (List.map
         (fun budget ->
           series_over trials
             (Printf.sprintf "budget=%d" budget)
             config.fault_rates
             (fun rate t ->
               Option.map proj (List.assoc_opt (budget, rate) t.tr_retry)))
         config.retry_budgets)
  in
  retry_chart "latency"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Mean latency vs transient fault rate (R-LTF eps=%d, %d items, \
              %d graphs, backoff 0.25 period x2)"
             eps config.n_items config.reps;
         x_label = "per-attempt fault rate";
         y_label = "mean sojourn";
       })
    (fun rp -> rp.rp_latency);
  retry_chart "delivered"
    (Fig_common.Line "Delivered items (% of injected):")
    (fun rp -> 100.0 *. rp.rp_delivered);
  retry_chart "count" (Fig_common.Line "Retries per injected item:") (fun rp ->
      rp.rp_retries);
  (* Part B: gray straggler factor. *)
  chart "gray" "straggler_factor"
    (Fig_common.Plot
       {
         title = "Mean latency vs gray straggler factor (no crash, no loss)";
         x_label = "execution slowdown factor";
         y_label = "mean sojourn";
       })
    [
      series_over trials "straggler on busiest proc" config.straggler_factors
        (fun factor t -> List.assoc_opt factor t.tr_gray);
    ];
  (* Part C: correlation strength. *)
  let corr_series label proj =
    series_over trials label config.rhos (fun rho t ->
        Option.map proj (List.assoc_opt rho t.tr_corr))
  in
  chart "correlated" "rho"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Defeat probability vs correlation strength (racks of %d, \
              p_total %.2f, %d MC draws)"
             rack_size p_total config.mc_draws;
         x_label = "correlation rho (shock share of p_total)";
         y_label = "P(defeat)";
       })
    [
      corr_series "exact (Marshall-Olkin)" (fun c -> c.cp_exact);
      corr_series "Monte-Carlo" (fun c -> c.cp_mc);
      corr_series "independent (equal marginals)" (fun c -> c.cp_independent);
    ];
  (* Part D: the eviction drill, on rep 0's mapping. *)
  match per_rep with
  | [ (_, Some t) ] :: _ ->
      let d = eviction_drill config t.tr_mapping ~throughput:t.tr_throughput in
      Printf.printf
        "eviction drill: %d eviction(s), availability %.3f, epochs [%s]\n"
        d.dr_evictions d.dr_availability
        (String.concat "; " d.dr_decisions)
  | _ -> Printf.printf "eviction drill: scheduling failed, skipped\n"
