(* A realistic streaming scenario: a surveillance-camera analytics
   pipeline, the kind of workload the paper's introduction motivates
   (video encoding/decoding, DSP).  Per frame:

     capture -> demux -> decode -> {denoise, motion-detect} ->
     object-track -> {annotate, re-encode} -> mux -> publish

   The platform is a small heterogeneous edge cluster (two fast servers,
   four slower nodes) that must keep up with 25 frames/s and survive one
   node failure.  We compare LTF and R-LTF and replay a failure.

     dune exec examples/video_pipeline.exe
*)

let pipeline =
  let b = Dag.Builder.create ~name:"video-analytics" 10 in
  let task i label weight =
    Dag.Builder.set_label b i label;
    Dag.Builder.set_exec b i weight
  in
  task 0 "capture" 2.0;
  task 1 "demux" 1.0;
  task 2 "decode" 8.0;
  task 3 "denoise" 6.0;
  task 4 "motion" 5.0;
  task 5 "track" 7.0;
  task 6 "annotate" 3.0;
  task 7 "encode" 9.0;
  task 8 "mux" 1.0;
  task 9 "publish" 1.0;
  let edge ?(volume = 1.0) src dst = Dag.Builder.add_edge b ~volume src dst in
  edge 0 1 ~volume:8.0;
  edge 1 2 ~volume:8.0;
  edge 2 3 ~volume:4.0;
  edge 2 4 ~volume:4.0;
  edge 3 5 ~volume:2.0;
  edge 4 5 ~volume:1.0;
  edge 5 6 ~volume:1.0;
  edge 5 7 ~volume:2.0;
  edge 6 8 ~volume:1.0;
  edge 7 8 ~volume:4.0;
  edge 8 9 ~volume:4.0;
  Dag.Builder.build b

let cluster =
  Platform.create ~name:"edge-cluster"
    ~speeds:[| 4.0; 4.0; 1.5; 1.5; 1.5; 1.5 |]
    ~bandwidth:
      (Array.init 6 (fun i ->
           Array.init 6 (fun j ->
               if i = j then 0.0
               else if i < 2 && j < 2 then 8.0 (* fast link between servers *)
               else 2.0)))
    ()

let frame_rate = 25.0
let period = 1.0 /. frame_rate

(* Work units are calibrated so that the whole pipeline (43 units) at
   cluster speed keeps a comfortable margin at 25 fps. *)
let scale = 1.0 /. 250.0

let () =
  let dag = Dag.map_weights ~exec:(fun _ w -> w *. scale)
      ~volume:(fun _ _ v -> v *. scale) pipeline
  in
  let throughput = 1.0 /. period in
  let problem = Types.problem ~dag ~platform:cluster ~eps:1 ~throughput in
  Printf.printf "Target: %.0f frames/s (period %.3f s), tolerate 1 node loss\n\n"
    frame_rate period;
  let report name outcome =
    Printf.printf "--- %s ---\n" name;
    match outcome with
    | Error f -> Printf.printf "fails: %s\n\n" (Types.failure_to_string f)
    | Ok mapping ->
        print_string (Gantt.summary mapping);
        Printf.printf "stages S = %d, end-to-end latency bound = %.3f s\n"
          (Metrics.stage_depth mapping)
          (Metrics.latency_bound mapping ~throughput);
        Printf.printf "sustained rate = %.1f frames/s\n"
          (Metrics.achieved_throughput mapping);
        (* Replay 1 s of video with node 0 (a fast server) failing. *)
        let latency failed =
          (Crash.estimate ~source:(Crash.Of_mapping mapping)
             ~method_:(Crash.Fixed failed) ())
            .Crash.est_mean
        in
        let healthy = latency [] and degraded = latency [ 0 ] in
        (match (healthy, degraded) with
        | Some h, Some d ->
            Printf.printf "frame latency: %.4f s healthy, %.4f s with server-0 down\n"
              h d
        | _ -> print_endline "frame lost (unexpected)");
        (match Validate.all mapping ~throughput with
        | [] -> print_endline "validated: throughput + 1-failure tolerance"
        | errs ->
            List.iter
              (fun e -> Printf.printf "validation: %s\n" (Validate.error_to_string e))
              errs);
        print_newline ()
  in
  report "LTF" (Ltf.schedule problem);
  report "R-LTF" (Rltf.schedule problem)
