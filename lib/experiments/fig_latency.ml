type mode = Bounds | Crash

let series ~mode samples =
  match mode with
  | Bounds ->
      [
        Fig_common.mean_series ~label:"R-LTF With 0 Crash"
          Fig_common.rltf_sim samples;
        Fig_common.mean_series ~label:"R-LTF UpperBound"
          Fig_common.rltf_bound samples;
        Fig_common.mean_series ~label:"LTF With 0 Crash"
          Fig_common.ltf_sim samples;
        Fig_common.mean_series ~label:"LTF UpperBound"
          Fig_common.ltf_bound samples;
      ]
  | Crash ->
      [
        Fig_common.mean_series ~label:"R-LTF With 0 Crash"
          Fig_common.rltf_sim samples;
        Fig_common.mean_series ~label:"R-LTF With Crash"
          Fig_common.rltf_crash samples;
        Fig_common.mean_series ~label:"LTF With 0 Crash"
          Fig_common.ltf_sim samples;
        Fig_common.mean_series ~label:"LTF With Crash"
          Fig_common.ltf_crash samples;
      ]

let csv_of_series ~x_header path series =
  match series with
  | [] -> ()
  | first :: _ ->
      let xs = List.map fst first.Ascii_plot.points in
      let rows =
        List.map
          (fun x ->
            x
            :: List.map
                 (fun s ->
                   match List.assoc_opt x s.Ascii_plot.points with
                   | Some y -> y
                   | None -> nan)
                 series)
          xs
      in
      Csv.write_floats ~path
        ~header:(x_header :: List.map (fun s -> s.Ascii_plot.label) series)
        rows

let table_of_series series =
  match series with
  | [] -> ()
  | first :: _ ->
      let xs = List.map fst first.Ascii_plot.points in
      let rows =
        List.map
          (fun x ->
            Printf.sprintf "%.1f" x
            :: List.map
                 (fun s ->
                   match List.assoc_opt x s.Ascii_plot.points with
                   | Some y when not (Float.is_nan y) -> Printf.sprintf "%.1f" y
                   | _ -> "-")
                 series)
          xs
      in
      Ascii_table.print
        ~header:("g" :: List.map (fun s -> s.Ascii_plot.label) series)
        rows

let run ?(out_dir = "results") ?(jobs = 1) ~(config : Fig_common.config) ~mode
    () =
  let samples = Fig_common.collect ~jobs config in
  let curves = series ~mode samples in
  let what =
    match mode with
    | Bounds -> "bounds"
    | Crash -> Printf.sprintf "crash%d" config.Fig_common.crashes
  in
  let title =
    Printf.sprintf
      "Normalized latency vs granularity (%s, eps=%d, %d graphs/point)" what
      config.Fig_common.eps config.Fig_common.graphs_per_point
  in
  Ascii_plot.print ~title ~x_label:"granularity" ~y_label:"normalized latency"
    curves;
  table_of_series curves;
  csv_of_series ~x_header:"granularity"
    (Filename.concat out_dir
       (Printf.sprintf "fig-latency-%s-eps%d.csv" what config.Fig_common.eps))
    curves;
  curves
