(* Driving the library from workflow/platform description files — the
   text format of Workflow_io — and trimming the platform to the cheapest
   subset that still meets all three criteria (Platform_cost, §6).

     dune exec examples/custom_workflow.exe
*)

let workflow_file =
  {|workflow sensor-fusion
# a radar/camera fusion pipeline
task radar-in    2.0
task camera-in   3.0
task radar-dsp   6.0
task camera-dsp  8.0
task align       2.0
task fuse        5.0
task classify    7.0
task alert       1.0
edge radar-in  radar-dsp  2.0
edge camera-in camera-dsp 6.0
edge radar-dsp  align     1.0
edge camera-dsp align     2.0
edge align fuse           2.0
edge fuse classify        1.0
edge classify alert       0.5
|}

let platform_file =
  {|platform fusion-rack
proc gpu-a  4.0
proc gpu-b  4.0
proc cpu-1  1.0
proc cpu-2  1.0
proc cpu-3  1.0
proc cpu-4  1.0
default-bandwidth 4.0
link gpu-a gpu-b 16.0
|}

let () =
  let dag =
    match Workflow_io.parse_workflow workflow_file with
    | Ok dag -> dag
    | Error e -> failwith (Workflow_io.error_to_string e)
  in
  let platform =
    match Workflow_io.parse_platform platform_file with
    | Ok p -> p
    | Error e -> failwith (Workflow_io.error_to_string e)
  in
  Printf.printf "Loaded %S (%d tasks) on %S (%d processors)\n\n" (Dag.name dag)
    (Dag.size dag)
    (Platform.name platform)
    (Platform.size platform);
  let throughput = 1.0 /. 10.0 in
  let eps = 1 in
  let problem = Types.problem ~dag ~platform ~eps ~throughput in
  match Rltf.schedule problem with
  | Error f -> Printf.printf "unschedulable: %s\n" (Types.failure_to_string f)
  | Ok mapping ->
      Printf.printf "full rack: S = %d, latency bound = %.1f\n"
        (Metrics.stage_depth mapping)
        (Metrics.latency_bound mapping ~throughput);
      (* How much of the rack do we actually need to rent? *)
      let latency_bound = 1.5 *. Metrics.latency_bound mapping ~throughput in
      (match
         Platform_cost.minimize ~latency_bound ~dag ~platform ~eps ~throughput ()
       with
      | None -> print_endline "cost minimization found nothing feasible"
      | Some r ->
          Printf.printf
            "cheapest subset: {%s} — cost %.1f of %.1f (%d oracle calls)\n"
            (String.concat ", "
               (List.map (Printf.sprintf "P%d") r.Platform_cost.kept))
            r.Platform_cost.cost r.Platform_cost.full_cost
            r.Platform_cost.evaluations;
          Printf.printf "reduced rack: S = %d, latency bound = %.1f\n"
            (Metrics.stage_depth r.Platform_cost.mapping)
            (Metrics.latency_bound r.Platform_cost.mapping ~throughput));
      (* Export artefacts of the full-rack schedule. *)
      let result =
        Engine.simulate ~config:(Engine.Run.closed ()) (Engine.compile mapping)
      in
      let svg = Filename.temp_file "sensor-fusion" ".svg" in
      Svg_gantt.save svg mapping result;
      let trace = Filename.temp_file "sensor-fusion" ".json" in
      Trace.save_chrome_json trace mapping result;
      Printf.printf "\nSVG Gantt: %s\nChrome trace: %s\n" svg trace
