(* The worked example of §4.3 (Fig. 2): LTF and R-LTF on the 7-task
   workflow with eps = 1 and T = 0.05, on 8 and 10 processors, with the
   full mapping and an ASCII Gantt chart of the simulated execution.

     dune exec examples/worked_example.exe
*)

let show name outcome ~throughput =
  Printf.printf "--- %s ---\n" name;
  match outcome with
  | Error f -> Printf.printf "fails: %s\n\n" (Types.failure_to_string f)
  | Ok mapping ->
      Format.printf "%a@." Mapping.pp mapping;
      let result =
        Engine.simulate ~config:(Engine.Run.closed ()) (Engine.compile mapping)
      in
      let times id =
        match (result.Engine.start_time 0 id, result.Engine.finish_time 0 id) with
        | Some s, Some f -> Some (s, f)
        | _ -> None
      in
      print_string (Gantt.render ~width:64 mapping ~times);
      Printf.printf "stages S = %d, latency bound = %.0f, messages = %d\n\n"
        (Metrics.stage_depth mapping)
        (Metrics.latency_bound mapping ~throughput)
        (Mapping.n_messages mapping)

let () =
  let dag = Classic.fig2_graph in
  let throughput = 0.05 in
  List.iter
    (fun m ->
      let platform = Classic.fig2_platform ~m in
      let problem = Types.problem ~dag ~platform ~eps:1 ~throughput in
      show (Printf.sprintf "LTF, m = %d" m) (Ltf.schedule problem) ~throughput;
      show (Printf.sprintf "R-LTF, m = %d" m) (Rltf.schedule problem) ~throughput)
    [ 8; 10 ]
