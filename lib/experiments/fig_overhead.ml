let overhead proj (s : Fig_common.sample) =
  let l = proj s and ff = Fig_common.ff_sim s in
  if Float.is_nan l || Float.is_nan ff || ff <= 0.0 then nan
  else (l -. ff) /. ff *. 100.0

(* Share of crash draws that defeated the mapping (an exit task lost all
   replicas), in %.  Kept out of the overhead CSV so that artifact stays
   byte-identical across releases; it gets its own table and file. *)
let pct proj s =
  let r = proj s in
  if Float.is_nan r then nan else r *. 100.0

let run ?(out_dir = "results") ?(jobs = 1) ~(config : Fig_common.config) () =
  let samples = Fig_common.collect ~jobs config in
  let series =
    List.map (fun (label, proj) -> Fig_common.mean_series ~label proj samples)
  in
  (* Exact runs write to their own files: the Monte-Carlo artifacts stay
     byte-identical whether or not anyone also runs the calculus. *)
  let suffix = if config.Fig_common.exact then "-exact" else "" in
  let mode = if config.Fig_common.exact then "exact" else "sampled" in
  let csv name =
    Filename.concat out_dir
      (Printf.sprintf "fig-overhead%s-eps%d%s.csv" name config.Fig_common.eps
         suffix)
  in
  Fig_common.chart ~path:(csv "") ~x_header:"granularity"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Fault-tolerance overhead (%%) vs granularity (eps=%d, c=%d, %d \
              graphs/point, %s)"
             config.Fig_common.eps config.Fig_common.crashes
             config.Fig_common.graphs_per_point mode;
         x_label = "granularity";
         y_label = "overhead %";
       })
    (series
       [
         ("R-LTF With 0 Crash", overhead Fig_common.rltf_sim);
         ("R-LTF With Crash", overhead Fig_common.rltf_crash);
         ("LTF With 0 Crash", overhead Fig_common.ltf_sim);
         ("LTF With Crash", overhead Fig_common.ltf_crash);
       ]);
  if config.Fig_common.crashes > 0 then
    Fig_common.chart ~path:(csv "-defeats") ~x_header:"granularity"
      (Fig_common.Line
         (if config.Fig_common.exact then
            Printf.sprintf "Exact defeat probability (c=%d, %%):"
              config.Fig_common.crashes
          else
            Printf.sprintf "Defeated crash draws (c=%d, %% of draws):"
              config.Fig_common.crashes))
      (series
         [
           ("R-LTF Defeat %", pct Fig_common.rltf_defeat_rate);
           ("LTF Defeat %", pct Fig_common.ltf_defeat_rate);
         ])
