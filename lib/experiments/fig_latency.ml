type mode = Bounds | Crash

(* Per algorithm, its 0-crash latency and the mode's second measure. *)
let series ~mode samples =
  let second, rltf, ltf =
    match mode with
    | Bounds -> ("UpperBound", Fig_common.rltf_bound, Fig_common.ltf_bound)
    | Crash -> ("With Crash", Fig_common.rltf_crash, Fig_common.ltf_crash)
  in
  List.map
    (fun (label, proj) -> Fig_common.mean_series ~label proj samples)
    [
      ("R-LTF With 0 Crash", Fig_common.rltf_sim);
      ("R-LTF " ^ second, rltf);
      ("LTF With 0 Crash", Fig_common.ltf_sim);
      ("LTF " ^ second, ltf);
    ]

let run ?(out_dir = "results") ?(jobs = 1) ~(config : Fig_common.config) ~mode
    () =
  let samples = Fig_common.collect ~jobs config in
  let what =
    match mode with
    | Bounds -> "bounds"
    | Crash -> Printf.sprintf "crash%d" config.Fig_common.crashes
  in
  Fig_common.chart
    ~path:
      (Filename.concat out_dir
         (Printf.sprintf "fig-latency-%s-eps%d.csv" what config.Fig_common.eps))
    ~x_header:"granularity"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Normalized latency vs granularity (%s, eps=%d, %d graphs/point)"
             what config.Fig_common.eps config.Fig_common.graphs_per_point;
         x_label = "granularity";
         y_label = "normalized latency";
       })
    (series ~mode samples)
