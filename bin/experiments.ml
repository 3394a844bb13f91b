(* CLI driver regenerating every figure of the paper's evaluation (and the
   extensions).  `experiments.exe all` reproduces the full set. *)

open Cmdliner

let report_metrics ~metrics ~metrics_text ~check_metrics =
  let reg = Obs.snapshot () in
  (match metrics with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Registry.to_json reg);
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics written to %s\n%!" path);
  if metrics_text then Format.printf "%a@?" Obs.Registry.pp_text reg;
  if not check_metrics then 0
  else
    (* Validate the rendered JSON, not the in-memory registry: the
       round-trip through the parser is part of the contract. *)
    match Obs_report.validate_string (Obs.Registry.to_json reg) with
    | Ok () ->
        print_endline "metrics check: ok";
        0
    | Error problems ->
        List.iter
          (fun p -> Printf.eprintf "metrics check: missing %s\n" p)
          problems;
        1

let run_experiments names workload quick seed jobs out_dir exact metrics
    metrics_text check_metrics check_exact =
  let targets =
    match names with
    | [] | [ "all" ] -> Ok Runner.all
    | names ->
        let missing = List.filter (fun n -> Runner.find n = None) names in
        if missing <> [] then
          Error
            (Printf.sprintf "unknown experiment(s): %s (available: %s)"
               (String.concat ", " missing)
               (String.concat ", " ("all" :: Runner.names)))
        else Ok (List.filter_map Runner.find names)
  in
  let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
  let obs_on = metrics <> None || metrics_text || check_metrics in
  match targets with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok targets ->
      if obs_on then begin
        Obs.set_enabled true;
        Obs.reset ()
      end;
      List.iter
        (fun (e : Runner.experiment) ->
          Printf.printf "=== %s: %s ===\n%!" e.Runner.name e.Runner.description;
          e.Runner.run ~workload ~quick ~seed ~jobs ~exact ~out_dir;
          print_newline ())
        targets;
      let metrics_status =
        if obs_on then report_metrics ~metrics ~metrics_text ~check_metrics
        else 0
      in
      let exact_status =
        if not check_exact then 0
        else
          (* The gate re-derives everything from the seed, so it checks
             the calculus/sampler pair itself, not a particular run. *)
          let config =
            { (if quick then Fig_convergence.quick else Fig_convergence.default)
              with Fig_convergence.seed }
          in
          match Fig_convergence.check ~jobs config with
          | Ok () ->
              print_endline "exact cross-check: ok";
              0
          | Error msg ->
              prerr_endline msg;
              1
      in
      if metrics_status <> 0 then metrics_status else exact_status

let names_arg =
  let doc =
    "Experiments to run: $(b,all) or any of "
    ^ String.concat ", " Runner.names ^ "."
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc =
    "Shrink every experiment's replication for a fast smoke run (Figs. 3 \
     and 4: 8 graphs/point instead of the paper's 60)."
  in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed_arg =
  let doc = "Base random seed (runs are deterministic in the seed)." in
  Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the sample sweeps.  $(b,-j 1) (the default) runs \
     sequentially without spawning any domain; $(b,-j 0) uses one worker \
     per recommended domain; a negative count is rejected.  Results are \
     byte-for-byte identical for every value — parallelism only changes \
     the wall-clock."
  in
  let count =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "expected a worker count >= 0 (-j 0 uses one per \
                  recommended domain), got %S"
                 s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt count 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Directory for the CSV outputs." in
  Arg.(value & opt string "results" & info [ "out" ] ~docv:"DIR" ~doc)

let workload_arg =
  let doc =
    "Run the sweep experiments on a named workload spec instead of their \
     default, e.g. $(b,paper-fan-in-out) or $(b,huge:v=5000:m=50) \
     (':'-separated overrides; $(b,v) pins the task count, $(b,m) the \
     processor count).  Experiments with a fixed workload ignore it."
  in
  let spec =
    let parse s = Result.map_error (fun msg -> `Msg msg) (Spec.of_string s) in
    Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Spec.name s))
  in
  Arg.(value & opt (some spec) None & info [ "workload" ] ~docv:"SPEC" ~doc)

let exact_arg =
  let doc =
    "Compute crash columns with the exact availability calculus instead \
     of Monte-Carlo draws where an experiment supports it.  $(b,fig3) \
     and $(b,fig4) write each crash-dependent panel to an \
     $(b,-exact)-suffixed CSV in place of its sampled one; \
     $(b,recovery) adds an exact survival curve.  The sampled artifacts \
     are never touched."
  in
  Arg.(value & flag & info [ "exact" ] ~doc)

let check_exact_arg =
  let doc =
    "After the run, cross-validate the Monte-Carlo crash sampler against \
     the exact availability calculus on pinned seeds (the convergence \
     gate) and exit non-zero when the gap exceeds the tolerance.  \
     Deterministic in $(b,--seed)."
  in
  Arg.(value & flag & info [ "check-exact" ] ~doc)

let metrics_arg =
  let doc =
    "Enable the observability layer and write the collected counters, \
     histograms and spans as JSON to $(docv) after the run.  Recording \
     is purely observational: results and figure outputs are \
     byte-for-byte identical with or without it."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)

let metrics_text_arg =
  let doc =
    "Enable the observability layer and print a human-readable metrics \
     dump after the run."
  in
  Arg.(value & flag & info [ "metrics-text" ] ~doc)

let check_metrics_arg =
  let doc =
    "Enable the observability layer and validate the collected metrics \
     against the documented key set (see Obs_report); exits non-zero \
     when a documented key is missing.  Meaningful after a run that \
     touches every layer, e.g. the $(b,latency) profile."
  in
  Arg.(value & flag & info [ "check-metrics" ] ~doc)

let cmd =
  let doc =
    "regenerate the evaluation of 'Optimizing the Latency of Streaming \
     Applications under Throughput and Reliability Constraints'"
  in
  let info = Cmd.info "experiments" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run_experiments $ names_arg $ workload_arg $ quick_arg
      $ seed_arg $ jobs_arg $ out_arg $ exact_arg $ metrics_arg
      $ metrics_text_arg $ check_metrics_arg $ check_exact_arg)

let () = exit (Cmd.eval' cmd)
