type experiment = {
  name : string;
  description : string;
  run :
    workload:Spec.t option ->
    quick:bool ->
    seed:int ->
    jobs:int ->
    exact:bool ->
    out_dir:string ->
    unit;
}

(* A paper figure: one Fig_common pass at (eps, crashes) on the quick or
   full config at [seed] charts all three panels.  Only these sweeps take
   a workload spec; every other experiment runs its fixed workload and
   ignores it. *)
let paper_fig ~eps ~crashes ~workload ~quick ~seed ~jobs ~exact ~out_dir =
  let config =
    if quick then Fig_common.quick ~eps ~crashes
    else Fig_common.default ~eps ~crashes
  in
  let spec = Option.value workload ~default:config.Fig_common.spec in
  Fig_latency.run ~out_dir ~jobs
    ~config:{ config with Fig_common.seed; exact; spec }
    ()

(* A table figure on its fixed workload: [quick] or [full] graphs. *)
let table_fig name description ~quick ~full run =
  {
    name;
    description;
    run =
      (fun ~workload:_ ~quick:small ~seed ~jobs ~exact:_ ~out_dir ->
        ignore (run ~out_dir ~seed ~jobs ~graphs:(if small then quick else full)));
  }

let all =
  [
    {
      name = "fig3";
      description =
        "Fig. 3: latency bounds, latency with 1 crash and fault-tolerance \
         overhead vs granularity, eps=1";
      run = paper_fig ~eps:1 ~crashes:1;
    };
    {
      name = "fig4";
      description =
        "Fig. 4: latency bounds, latency with 2 crashes and fault-tolerance \
         overhead vs granularity, eps=3";
      run = paper_fig ~eps:3 ~crashes:2;
    };
    {
      name = "examples";
      description = "Figs. 1-2: the paper's worked examples, replayed";
      run = (fun ~workload:_ ~quick:_ ~seed:_ ~jobs:_ ~exact:_ ~out_dir:_ -> Paper_examples.print ());
    };
    table_fig "baselines" "Extension A: Section 3 heuristics on the paper workload"
      ~quick:6 ~full:30 (fun ~out_dir ~seed ~jobs ~graphs ->
        Fig_baselines.run ~out_dir ~seed ~jobs ~graphs ());
    {
      name = "complexity";
      description = "Theorem 1: empirical LTF runtime scaling";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs:_ ~exact:_ ~out_dir ->
          ignore
            (Fig_complexity.run ~out_dir ~seed
               ~repetitions:(if quick then 1 else 3)
               ()));
    };
    table_fig "symmetric" "Extension B: Section 6 symmetric problems" ~quick:3
      ~full:10 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_symmetric.run ~out_dir ~seed ~graphs ());
    table_fig "ablation"
      "Extension C: ablation of the implementation's mechanisms" ~quick:5
      ~full:20 (fun ~out_dir ~seed ~jobs ~graphs ->
        Fig_ablation.run ~out_dir ~seed ~jobs ~graphs ());
    table_fig "pipeline" "Extension D: event-driven validation of the throughput"
      ~quick:3 ~full:10 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_pipeline.run ~out_dir ~seed ~graphs ());
    table_fig "optgap" "Extension F: optimality gap vs exact branch-and-bound"
      ~quick:5 ~full:15 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_optgap.run ~out_dir ~seed ~graphs ());
    table_fig "families" "Extension H: robustness across graph families"
      ~quick:4 ~full:12 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_robustness.families ~out_dir ~seed ~graphs ());
    table_fig "topology" "Extension G: sensitivity to the platform topology"
      ~quick:4 ~full:12 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_robustness.topology ~out_dir ~seed ~graphs ());
    table_fig "cost" "Extension E: platform rental-cost minimization (Section 6)"
      ~quick:2 ~full:8 (fun ~out_dir ~seed ~jobs:_ ~graphs ->
        Fig_cost.run ~out_dir ~seed ~graphs ());
    {
      name = "recovery";
      description =
        "Extension I: availability and degraded latency under live failures";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs ~exact ~out_dir ->
          let config =
            if quick then Fig_recovery.quick else Fig_recovery.default
          in
          let config = { config with Fig_recovery.seed; exact } in
          Fig_recovery.run ~out_dir ~jobs ~config ());
    };
    {
      name = "traffic";
      description =
        "Extension K: open-system traffic — tail latency, queues and drops \
         vs offered load and burstiness";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs ~exact:_ ~out_dir ->
          let config = if quick then Fig_traffic.quick else Fig_traffic.default in
          let config = { config with Fig_traffic.seed } in
          Fig_traffic.run ~out_dir ~jobs ~config ());
    };
    {
      name = "faults";
      description =
        "Extension M: fault injection — retry/backoff vs transient fault \
         rate, gray stragglers, correlated failure domains, eviction";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs ~exact:_ ~out_dir ->
          let config = if quick then Fig_faults.quick else Fig_faults.default in
          let config = { config with Fig_faults.seed } in
          Fig_faults.run ~out_dir ~jobs ~config ());
    };
    {
      name = "convergence";
      description =
        "Extension J: Monte-Carlo crash estimates vs the exact calculus";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs ~exact:_ ~out_dir ->
          let config =
            if quick then Fig_convergence.quick else Fig_convergence.default
          in
          let config = { config with Fig_convergence.seed } in
          Fig_convergence.run ~out_dir ~jobs ~config ());
    };
    {
      name = "scaling";
      description =
        "Extension L: schedule/simulate wall-clock scaling on the huge \
         family (flat LTF vs clustered C-LTF)";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs:_ ~exact:_ ~out_dir ->
          let v_sweep =
            if quick then [ 1_000; 4_000 ]
            else [ 1_000; 10_000; 100_000; 1_000_000 ]
          in
          let m_sweep = if quick then [ 100 ] else [ 100; 1_000 ] in
          ignore (Fig_scaling.run ~out_dir ~seed ~v_sweep ~m_sweep ()));
    };
    {
      name = "latency";
      description =
        "Profile: the fig3 pass plus an event-driven replay of R-LTF \
         mappings (touches every instrumented layer)";
      run =
        (fun ~workload:_ ~quick ~seed ~jobs ~exact:_ ~out_dir ->
          paper_fig ~eps:1 ~crashes:1 ~workload:None ~quick ~seed ~jobs
            ~exact:false ~out_dir;
          (* The pass above measures latency with the stage-synchronous
             model; replay R-LTF mappings through the event-driven
             one-port simulator so a latency profile also covers the
             sim.* metrics.  The replay draws its own graphs with
             [rep_instance] (seed + 7919 rep, granularity 1); the pass's
             trials are seeded by [trial_seed] and are other graphs. *)
          let graphs = if quick then 3 else 10 in
          let rltf = Fig_common.contender ~eps:1 Rltf.algo in
          let replayed = ref 0 in
          List.iter
            (fun rep ->
              let rng, inst = Fig_common.rep_instance Spec.default ~seed ~rep in
              match Fig_common.schedule rltf inst with
              | None -> ()
              | Some (mapping, _) ->
                  let prog = Engine.compile mapping in
                  ignore (Engine.simulate ~config:(Engine.Run.closed ~n_items:4 ()) prog);
                  ignore
                    (Crash.estimate ~source:(Crash.Of_program prog)
                       ~method_:(Crash.Sampled { crashes = 1; draws = 1; rng })
                       ());
                  incr replayed)
            (List.init graphs Fun.id);
          Printf.printf "event-driven replay: %d/%d instances simulated\n"
            !replayed graphs);
    };
  ]

(* Group everything an experiment does under one per-figure span, so a
   metrics dump attributes time figure-by-figure. *)
let all =
  List.map
    (fun e ->
      {
        e with
        run =
          (fun ~workload ~quick ~seed ~jobs ~exact ~out_dir ->
            Obs.with_span ("exp.fig." ^ e.name) (fun () ->
                e.run ~workload ~quick ~seed ~jobs ~exact ~out_dir));
      })
    all

let find name = List.find_opt (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all
