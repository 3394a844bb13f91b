let overhead proj (s : Fig_common.sample) =
  let l = proj s and ff = Fig_common.ff_sim s in
  if Float.is_nan l || Float.is_nan ff || ff <= 0.0 then nan
  else (l -. ff) /. ff *. 100.0

let series samples =
  [
    Fig_common.mean_series ~label:"R-LTF With 0 Crash"
      (overhead Fig_common.rltf_sim) samples;
    Fig_common.mean_series ~label:"R-LTF With Crash"
      (overhead Fig_common.rltf_crash) samples;
    Fig_common.mean_series ~label:"LTF With 0 Crash"
      (overhead Fig_common.ltf_sim) samples;
    Fig_common.mean_series ~label:"LTF With Crash"
      (overhead Fig_common.ltf_crash) samples;
  ]

(* Share of crash draws that defeated the mapping (an exit task lost all
   replicas), in %.  Kept out of the overhead CSV so that artifact stays
   byte-identical across releases; it gets its own table and file. *)
let defeat_series samples =
  let pct proj s =
    let r = proj s in
    if Float.is_nan r then nan else r *. 100.0
  in
  [
    Fig_common.mean_series ~label:"R-LTF Defeat %"
      (pct Fig_common.rltf_defeat_rate) samples;
    Fig_common.mean_series ~label:"LTF Defeat %"
      (pct Fig_common.ltf_defeat_rate) samples;
  ]

let run ?(out_dir = "results") ?(jobs = 1) ~(config : Fig_common.config) () =
  let samples = Fig_common.collect ~jobs config in
  let curves = series samples in
  (* Exact runs write to their own files: the Monte-Carlo artifacts stay
     byte-identical whether or not anyone also runs the calculus. *)
  let suffix = if config.Fig_common.exact then "-exact" else "" in
  let mode = if config.Fig_common.exact then "exact" else "sampled" in
  let title =
    Printf.sprintf
      "Fault-tolerance overhead (%%) vs granularity (eps=%d, c=%d, %d \
       graphs/point, %s)"
      config.Fig_common.eps config.Fig_common.crashes
      config.Fig_common.graphs_per_point mode
  in
  Ascii_plot.print ~title ~x_label:"granularity" ~y_label:"overhead %" curves;
  Fig_latency.table_of_series curves;
  Fig_latency.csv_of_series ~x_header:"granularity"
    (Filename.concat out_dir
       (Printf.sprintf "fig-overhead-eps%d%s.csv" config.Fig_common.eps suffix))
    curves;
  if config.Fig_common.crashes > 0 then begin
    let defeats = defeat_series samples in
    (if config.Fig_common.exact then
       Printf.printf "Exact defeat probability (c=%d, %%):\n"
         config.Fig_common.crashes
     else
       Printf.printf "Defeated crash draws (c=%d, %% of draws):\n"
         config.Fig_common.crashes);
    Fig_latency.table_of_series defeats;
    Fig_latency.csv_of_series ~x_header:"granularity"
      (Filename.concat out_dir
         (Printf.sprintf "fig-overhead-defeats-eps%d%s.csv"
            config.Fig_common.eps suffix))
      defeats
  end;
  curves
