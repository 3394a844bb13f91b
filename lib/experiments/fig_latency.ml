(* Overhead against the fault-free reference, in %. *)
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
  let { Fig_common.eps; crashes; exact; graphs_per_point; _ } = config in
  let samples = Fig_common.collect ~jobs config in
  let series =
    List.map (fun (label, proj) -> Fig_common.mean_series ~label proj samples)
  in
  (* The bounds and 0-crash columns never touch a crash draw, so panel (a)
     is the same in both modes.  The crash-dependent panels of an exact
     run go to their own files: the Monte-Carlo artifacts stay
     byte-identical whether or not anyone also runs the calculus. *)
  let file name suffix =
    Filename.concat out_dir (Printf.sprintf "fig-%s-eps%d%s.csv" name eps suffix)
  in
  let csv name = file name (if exact then "-exact" else "") in
  let latency ~path what ~second (rltf, ltf) =
    Fig_common.chart ~path ~x_header:"granularity"
      (Fig_common.Plot
         {
           title =
             Printf.sprintf
               "Normalized latency vs granularity (%s, eps=%d, %d graphs/point)"
               what eps graphs_per_point;
           x_label = "granularity";
           y_label = "normalized latency";
         })
      (series
         [
           ("R-LTF With 0 Crash", Fig_common.rltf_sim);
           ("R-LTF " ^ second, rltf);
           ("LTF With 0 Crash", Fig_common.ltf_sim);
           ("LTF " ^ second, ltf);
         ])
  in
  (* (a) the 0-crash latency against the (2S-1)/T upper bound *)
  latency ~path:(file "latency-bounds" "") "bounds" ~second:"UpperBound"
    (Fig_common.rltf_bound, Fig_common.ltf_bound);
  (* (b) the 0-crash latency against the latency under c crashes *)
  let what = Printf.sprintf "crash%d" crashes in
  latency ~path:(csv ("latency-" ^ what))
    (if exact then what ^ " exact" else what)
    ~second:"With Crash"
    (Fig_common.rltf_crash, Fig_common.ltf_crash);
  (* (c) the overhead against the fault-free reference, then the share of
     crashes that defeated the mapping *)
  Fig_common.chart ~path:(csv "overhead") ~x_header:"granularity"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Fault-tolerance overhead (%%) vs granularity (eps=%d, c=%d, %d \
              graphs/point, %s)"
             eps crashes graphs_per_point
             (if exact then "exact" else "sampled");
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
  Fig_common.chart ~path:(csv "overhead-defeats") ~x_header:"granularity"
    (Fig_common.Line
       (if exact then
          Printf.sprintf "Exact defeat probability (c=%d, %%):" crashes
        else Printf.sprintf "Defeated crash draws (c=%d, %% of draws):" crashes))
    (series
       [
         ("R-LTF Defeat %", pct Fig_common.rltf_defeat_rate);
         ("LTF Defeat %", pct Fig_common.ltf_defeat_rate);
       ])
