(* Extension L: schedule-time and simulate-time scaling on the [huge]
   workload family, v up to 10⁶ tasks on p up to 10³ processors.

   Each sweep point draws one huge instance, schedules it with flat LTF
   and with the hierarchical C-LTF (cluster-then-place), then compiles
   and replays one period (one item) through the event engine.  The
   finish-time distribution of that item is summarized through a bounded
   reservoir ({!Stats.reservoir_add}) — at v = 10⁶ the sample has two
   million replica finish times, which must not be materialized or
   sorted. *)

type point = {
  v : int;  (** requested task count *)
  m : int;
  eps : int;
  algo : string;
  sched_s : float;  (** CPU seconds to schedule *)
  sim_s : float;  (** CPU seconds to compile + replay one item *)
  stages : int;
  latency : float;  (** simulated latency of item 0; nan if lost *)
  finish_p50 : float;  (** replica finish-time quantiles of item 0 *)
  finish_p999 : float;
}

let time_once f =
  let t0 = Sys.time () in
  let y = f () in
  (Sys.time () -. t0, y)

let algos () =
  let ltf : (module Sched_api.Algo) =
    (module struct
      let name = "LTF"
      let run ?opts prob = Ltf.schedule ?opts prob
    end)
  in
  match Baseline_registry.find "C-LTF" with
  | Some clustered -> [ ltf; clustered ]
  | None -> [ ltf ]

let measure ~rng ~eps ~spec prob (module A : Sched_api.Algo) =
  let opts = Scheduler.(default |> with_mode Best_effort) in
  let sched_s, outcome = time_once (fun () -> A.run ~opts prob) in
  match outcome with
  | Error f ->
      Printf.printf "  %-8s v=%-8d m=%-5d FAILED: %s\n%!" A.name
        spec.Huge.tasks spec.Huge.m
        (Types.failure_to_string f);
      None
  | Ok mapping ->
      let sim_s, result =
        time_once (fun () ->
            Engine.simulate ~config:(Engine.Run.closed ())
              (Engine.compile mapping))
      in
      let res =
        Stats.reservoir_create ~cap:4096 ~rand_int:(fun b -> Rng.int rng b)
      in
      Mapping.iter mapping (fun r ->
          match result.Engine.finish_time 0 r.Replica.id with
          | Some f -> Stats.reservoir_add res f
          | None -> ());
      let q = Stats.reservoir_quantiles res in
      let latency =
        match result.Engine.item_latency.(0) with Some l -> l | None -> nan
      in
      Some
        {
          v = spec.Huge.tasks;
          m = spec.Huge.m;
          eps;
          algo = A.name;
          sched_s;
          sim_s;
          stages = Metrics.stage_depth mapping;
          latency;
          finish_p50 = q.Stats.p50;
          finish_p999 = q.Stats.p999;
        }

let run ?(out_dir = "results") ?(seed = 2009)
    ?(v_sweep = [ 1_000; 10_000; 100_000; 1_000_000 ])
    ?(m_sweep = [ 100; 1_000 ]) () =
  let eps = 1 in
  let points = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun v ->
          let spec = { Huge.default_spec with Huge.tasks = v; m } in
          let rng = Rng.create ~seed:(seed + (31 * m) + v) in
          let inst = Spec.generate (Spec.huge spec) ~rng ~granularity:1.0 () in
          let throughput = Huge.throughput spec ~eps in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps ~throughput
          in
          List.iter
            (fun algo ->
              match measure ~rng ~eps ~spec prob algo with
              | None -> ()
              | Some p ->
                  Printf.printf
                    "  %-8s v=%-8d m=%-5d sched %8.2fs  sim %8.2fs  S=%d\n%!"
                    p.algo p.v p.m p.sched_s p.sim_s p.stages;
                  points := p :: !points)
            (algos ()))
        v_sweep)
    m_sweep;
  let points = List.rev !points in
  let series proj =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun name ->
            let mine =
              List.filter (fun p -> p.m = m && p.algo = name) points
            in
            if mine = [] then None
            else
              Some
                {
                  Ascii_plot.label = Printf.sprintf "%s m=%d" name m;
                  points =
                    List.map
                      (fun p -> (log10 (float_of_int p.v), proj p))
                      mine;
                })
          [ "LTF"; "C-LTF" ])
      m_sweep
  in
  Ascii_plot.print ~title:"schedule time vs log10 v"
    ~x_label:"log10 tasks" ~y_label:"CPU s" (series (fun p -> p.sched_s));
  Ascii_plot.print ~title:"simulate time (1 item) vs log10 v"
    ~x_label:"log10 tasks" ~y_label:"CPU s" (series (fun p -> p.sim_s));
  Csv.write
    ~path:(Filename.concat out_dir "fig-scaling.csv")
    ~header:
      [
        "v"; "m"; "eps"; "algo"; "sched_seconds"; "sim_seconds"; "stages";
        "latency"; "finish_p50"; "finish_p999";
      ]
    (List.map
       (fun p ->
         [
           string_of_int p.v;
           string_of_int p.m;
           string_of_int p.eps;
           p.algo;
           Printf.sprintf "%.6f" p.sched_s;
           Printf.sprintf "%.6f" p.sim_s;
           string_of_int p.stages;
           Printf.sprintf "%.6f" p.latency;
           Printf.sprintf "%.6f" p.finish_p50;
           Printf.sprintf "%.6f" p.finish_p999;
         ])
       points);
  points
