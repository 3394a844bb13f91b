(* Schedule visualizer: build a graph (classic family or random), schedule
   it with LTF or R-LTF, and print the mapping, the ASCII Gantt chart of a
   simulated execution, and the metrics. *)

open Cmdliner

let graphs =
  [
    ("fig1", `Fig1); ("fig2", `Fig2); ("chain", `Chain);
    ("fork-join", `Fork_join); ("diamond", `Diamond); ("fft", `Fft);
    ("gauss", `Gauss); ("stencil", `Stencil); ("random", `Random);
  ]

let build_graph graph tasks seed =
  match graph with
  | `Fig1 -> Classic.fig1_graph
  | `Fig2 -> Classic.fig2_graph
  | `Chain -> Classic.chain ~n:tasks ~exec:1.0 ~volume:0.5
  | `Fork_join -> Classic.fork_join ~width:(max 1 (tasks - 2)) ~exec:1.0 ~volume:0.5
  | `Diamond -> Classic.diamond ~levels:(max 1 (int_of_float (sqrt (float_of_int tasks)))) ~exec:1.0 ~volume:0.5
  | `Fft ->
      let p = max 1 (int_of_float (Float.log2 (float_of_int (max 2 tasks)) /. 2.0)) in
      Classic.fft ~p ~exec:1.0 ~volume:0.5
  | `Gauss -> Classic.gaussian_elimination ~n:(max 2 (int_of_float (sqrt (2.0 *. float_of_int tasks)))) ~exec:1.0 ~volume:0.5
  | `Stencil ->
      let side = max 1 (int_of_float (sqrt (float_of_int tasks))) in
      Classic.stencil ~rows:side ~cols:side ~exec:1.0 ~volume:0.5
  | `Random ->
      let rng = Rng.create ~seed in
      Random_dag.layered ~rng ~tasks ()

(* A usage error naming [option]: [main] hands it to cmdliner, which
   prints it with the usage line and exits 124, like a malformed option
   value. *)
exception Usage of string

let usage option fmt =
  Printf.ksprintf
    (fun msg -> raise (Usage (Printf.sprintf "option '%s': %s" option msg)))
    fmt

let main graph algo tasks m eps period seed crash spec_string
    workflow_file platform_file svg_out trace_out save_mapping load_mapping =
  try
    let spec_instance =
      match spec_string with
      | None -> None
      | Some str -> (
          match Workflow_io.instance_of_spec ~seed str with
          | Ok inst -> Some inst
          | Error e -> failwith (str ^ ": " ^ Workflow_io.error_to_string e))
    in
    let dag =
      match (spec_instance, workflow_file) with
      | Some inst, _ -> inst.Paper_workload.dag
      | None, Some path -> (
          match Workflow_io.load_workflow path with
          | Ok dag -> dag
          | Error e -> failwith (path ^ ": " ^ Workflow_io.error_to_string e))
      | None, None -> build_graph graph tasks seed
    in
    let plat =
      match (spec_instance, platform_file) with
      | Some inst, _ -> inst.Paper_workload.plat
      | None, Some path -> (
          match Workflow_io.load_platform path with
          | Ok p -> p
          | Error e -> failwith (path ^ ": " ^ Workflow_io.error_to_string e))
      | None, None ->
          if graph = `Fig1 && workflow_file = None then
            Classic.fig1_platform
          else Classic.fig2_platform ~m
    in
    let procs = Platform.size plat in
    if eps >= procs then
      usage "--eps" "%d tolerated failures need more than %d processors" eps procs;
    if crash > procs then
      usage "--crash" "cannot fail %d of %d processors" crash procs;
    let dag =
      if
        spec_instance <> None
        || ((graph = `Fig1 || graph = `Fig2) && workflow_file = None)
      then dag
      else Calibrate.normalize_time dag plat
    in
    let throughput = 1.0 /. period in
    let prob = Types.problem ~dag ~platform:plat ~eps ~throughput in
    let outcome =
      match load_mapping with
      | Some path -> (
          match Mapping_io.load ~dag ~platform:plat path with
          | Ok mapping -> Ok mapping
          | Error e -> failwith (path ^ ": " ^ Mapping_io.error_to_string e))
      | None -> (
          let opts = Scheduler.(default |> with_mode Best_effort) in
          match algo with
          | `Ltf -> Ltf.schedule ~opts prob
          | `Rltf -> Rltf.schedule ~opts prob)
    in
    match outcome with
    | Error f ->
        Printf.eprintf "scheduling failed: %s\n" (Types.failure_to_string f);
        `Ok 1
    | Ok mapping ->
        Format.printf "%a@." Mapping.pp mapping;
        print_string (Gantt.summary mapping);
        let failed = List.init crash Fun.id in
        let result =
          Engine.simulate
            ~config:{ (Engine.Run.closed ()) with Engine.Run.failed }
            (Engine.compile mapping)
        in
        let times item id =
          match (result.Engine.start_time item id, result.Engine.finish_time item id) with
          | Some s, Some f -> Some (s, f)
          | _ -> None
        in
        print_string (Gantt.render mapping ~times:(times 0));
        Printf.printf "stages S = %d\n" (Metrics.stage_depth mapping);
        Printf.printf "latency bound (2S-1)/T = %.2f\n"
          (Metrics.latency_bound mapping ~throughput);
        (match result.Engine.item_latency.(0) with
        | Some l ->
            Printf.printf "simulated latency%s = %.2f\n"
              (if crash > 0 then Printf.sprintf " (with %d crash)" crash else "")
              l
        | None -> print_endline "simulated latency: an exit task was lost");
        Printf.printf "achieved period = %.2f (desired %.2f)\n"
          (Metrics.period mapping) period;
        Printf.printf "replica messages = %d\n" (Mapping.n_messages mapping);
        Option.iter
          (fun path ->
            Mapping_io.save path mapping;
            Printf.printf "mapping written to %s\n" path)
          save_mapping;
        Option.iter
          (fun path ->
            Svg_gantt.save path mapping result;
            Printf.printf "SVG Gantt written to %s\n" path)
          svg_out;
        Option.iter
          (fun path ->
            Trace.save_chrome_json path mapping result;
            Printf.printf "Chrome trace written to %s\n" path)
          trace_out;
        `Ok 0
  with
  | Failure msg ->
      prerr_endline msg;
      `Ok 1
  | Usage msg -> `Error (true, msg)

(* Enumerated option values: an unknown name is a usage error (exit 124)
   that lists the accepted ones. *)
let graph_arg =
  let doc = Printf.sprintf "Graph family: %s." (Arg.doc_alts_enum graphs) in
  Arg.(value & pos 0 (enum graphs) `Fig2 & info [] ~docv:"GRAPH" ~doc)

let algo_arg =
  let algos = [ ("ltf", `Ltf); ("rltf", `Rltf) ] in
  let doc = Printf.sprintf "Scheduling algorithm: %s." (Arg.doc_alts_enum algos) in
  Arg.(value & opt (enum algos) `Rltf & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

(* Option values checked by cmdliner itself, so a bad one is a usage
   error (exit 124) before any library call sees it. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s >= %d, got %S" what lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float what =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a finite %s > 0, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let tasks_arg =
  Arg.(
    value
    & opt (int_at_least 1 "a task count") 24
    & info [ "tasks"; "n" ] ~docv:"N" ~doc:"Task count for generated graphs.")

let m_arg =
  Arg.(
    value
    & opt (int_at_least 1 "a processor count") 8
    & info [ "procs"; "m" ] ~docv:"M" ~doc:"Processor count.")

let eps_arg =
  Arg.(
    value
    & opt (int_at_least 0 "a failure count") 1
    & info [ "eps"; "e" ] ~docv:"EPS" ~doc:"Tolerated failures.")

let period_arg =
  Arg.(
    value
    & opt (positive_float "period") 20.0
    & info [ "period" ] ~docv:"DELTA" ~doc:"Desired period 1/T.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for random graphs.")

let crash_arg =
  Arg.(
    value
    & opt (int_at_least 0 "a crash count") 0
    & info [ "crash" ] ~docv:"C"
        ~doc:"Fail the first C processors in the replay.")

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:
          "Generate the workflow and platform from a workload spec string \
           (e.g. paper-layered, huge-small:v=500:m=10); overrides GRAPH, \
           --file and --platform-file.")

let workflow_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"FILE"
        ~doc:"Load the workflow from a Workflow_io text file instead of GRAPH.")

let platform_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "platform-file" ] ~docv:"FILE"
        ~doc:"Load the platform from a Workflow_io text file.")

let svg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart of the replay.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the replay.")

let save_mapping_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-mapping" ] ~docv:"FILE"
        ~doc:"Write the computed mapping to a Mapping_io text file.")

let load_mapping_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load-mapping" ] ~docv:"FILE"
        ~doc:
          "Replay a previously saved mapping instead of scheduling (must \
           match the workflow and platform).")

let cmd =
  let doc = "schedule a workflow and draw the resulting pipelined execution" in
  Cmd.v (Cmd.info "schedviz" ~doc)
    Term.(
      ret
        (const main $ graph_arg $ algo_arg $ tasks_arg $ m_arg $ eps_arg
       $ period_arg $ seed_arg $ crash_arg $ spec_arg $ workflow_file_arg
       $ platform_file_arg $ svg_arg $ trace_arg $ save_mapping_arg
       $ load_mapping_arg))

let () = exit (Cmd.eval' cmd)
