type impl =
  | Paper of Paper_workload.spec
  | Classic_fig1
  | Classic_fig2 of int
  | Huge of Huge.spec

type t = {
  name : string;
  impl : impl;
}

let name s = s.name
let paper ?(name = "paper-custom") pspec = { name; impl = Paper pspec }
let huge hspec = { name = "huge-custom"; impl = Huge hspec }

(* The paper's §5 workload: random layered DAGs, v∈[50,150], m=20. *)
let default =
  { name = "paper-layered"; impl = Paper Paper_workload.default_spec }

let all =
  [
    default;
    (* §5 parameters on bounded-degree random-growth graphs. *)
    {
      name = "paper-fan-in-out";
      impl =
        Paper
          { Paper_workload.default_spec with
            Paper_workload.family = Paper_workload.Fan_in_out };
    };
    (* §5 parameters on random series-parallel graphs. *)
    {
      name = "paper-series-parallel";
      impl =
        Paper
          { Paper_workload.default_spec with
            Paper_workload.family = Paper_workload.Series_parallel };
    };
    (* §5 parameters on split/join pipelines (StreamIt-like). *)
    {
      name = "paper-stream-chain";
      impl =
        Paper
          { Paper_workload.default_spec with
            Paper_workload.family = Paper_workload.Stream_chain };
    };
    (* The paper's Fig. 1 worked example (fixed graph and platform). *)
    { name = "classic-fig1"; impl = Classic_fig1 };
    (* The paper's Fig. 2 worked example on m=4 processors. *)
    { name = "classic-fig2"; impl = Classic_fig2 4 };
    (* Million-task layered pipeline on a thousand processors. *)
    { name = "huge"; impl = Huge Huge.default_spec };
    (* The huge family at test size. *)
    {
      name = "huge-small";
      impl = Huge { Huge.default_spec with Huge.tasks = 2000; m = 50 };
    };
  ]

let find n = List.find_opt (fun s -> s.name = n) all

(* Spec strings: a registry name optionally followed by ':'-separated
   size overrides, e.g. "huge:v=100000:m=200" or "paper-layered:v=80".
   [v] pins the task count, [m] the processor count. *)
let of_string str =
  match String.split_on_char ':' str with
  | [] -> Error "empty spec string"
  | base :: overrides -> (
      match find base with
      | None -> Error (Printf.sprintf "unknown workload spec %S" base)
      | Some s ->
          let apply acc kv =
            match (acc, String.index_opt kv '=') with
            | Error _, _ -> acc
            | Ok _, None ->
                Error (Printf.sprintf "malformed override %S (want k=v)" kv)
            | Ok s, Some i -> (
                let key = String.sub kv 0 i in
                let value = String.sub kv (i + 1) (String.length kv - i - 1) in
                match (key, int_of_string_opt value) with
                | _, None ->
                    Error (Printf.sprintf "non-integer override %S" kv)
                | "v", Some v when v > 0 -> (
                    match s.impl with
                    | Paper p ->
                        Ok
                          { s with
                            impl = Paper { p with Paper_workload.tasks_range = (v, v) } }
                    | Huge h -> Ok { s with impl = Huge { h with Huge.tasks = v } }
                    | Classic_fig1 | Classic_fig2 _ ->
                        Error "classic specs have a fixed size")
                | "m", Some m when m > 0 -> (
                    match s.impl with
                    | Paper p ->
                        Ok { s with impl = Paper { p with Paper_workload.m } }
                    | Huge h -> Ok { s with impl = Huge { h with Huge.m } }
                    | Classic_fig2 _ -> Ok { s with impl = Classic_fig2 m }
                    | Classic_fig1 -> Error "classic-fig1 has a fixed platform")
                | _ -> Error (Printf.sprintf "unknown override key %S" key))
          in
          List.fold_left apply (Ok s) overrides)

let throughput s ~eps =
  match s.impl with
  | Paper _ | Classic_fig1 | Classic_fig2 _ -> Paper_workload.throughput ~eps
  | Huge h -> Huge.throughput h ~eps

(* The paper's random heterogeneous platform: speeds and unit link
   delays drawn from the spec's ranges (the delay matrix is symmetric). *)
let paper_platform (spec : Paper_workload.spec) ~rng =
  let open Paper_workload in
  let lo_s, hi_s = spec.speed_range in
  let speeds = Array.init spec.m (fun _ -> Rng.uniform rng ~lo:lo_s ~hi:hi_s) in
  let lo_d, hi_d = spec.unit_delay_range in
  let bw = Array.make_matrix spec.m spec.m 1.0 in
  for k = 0 to spec.m - 1 do
    for h = k + 1 to spec.m - 1 do
      let delay = Rng.uniform rng ~lo:lo_d ~hi:hi_d in
      bw.(k).(h) <- 1.0 /. delay;
      bw.(h).(k) <- 1.0 /. delay
    done
  done;
  Platform.create ~name:"paper-platform" ~speeds ~bandwidth:bw ()

(* One calibrated random instance of the paper's workload. *)
let paper_instance (spec : Paper_workload.spec) ~rng ~granularity =
  let open Paper_workload in
  let lo_t, hi_t = spec.tasks_range in
  let tasks = Rng.uniform_int rng ~lo:lo_t ~hi:hi_t in
  let weights =
    {
      Random_dag.exec_range = spec.exec_range;
      volume_range = spec.volume_range;
    }
  in
  let dag =
    match spec.family with
    | Layered ->
        Random_dag.layered ~weights ~rng ~tasks ~edge_density:spec.edge_density ()
    | Fan_in_out -> Random_dag.fan_in_out ~weights ~rng ~tasks ~max_degree:2 ()
    | Series_parallel -> Random_dag.series_parallel ~weights ~rng ~tasks ()
    | Stream_chain ->
        (* split/join pipeline of the requested size, with random weights
           drawn once per task/edge (map_weights visits each edge twice —
           once per adjacency direction — so the draws must be
           precomputed) *)
        let branches = 3 in
        let stages = max 1 (tasks / (branches + 2)) in
        let skeleton =
          Classic.stream_pipeline ~stages ~branches ~exec:1.0 ~volume:1.0
        in
        let lo_e, hi_e = spec.exec_range and lo_v, hi_v = spec.volume_range in
        let execs =
          Array.init (Dag.size skeleton) (fun _ -> Rng.uniform rng ~lo:lo_e ~hi:hi_e)
        in
        let vols = Hashtbl.create (Dag.n_edges skeleton) in
        Dag.iter_edges skeleton (fun s d _ ->
            Hashtbl.replace vols (s, d) (Rng.uniform rng ~lo:lo_v ~hi:hi_v));
        Dag.map_weights
          ~exec:(fun t _ -> execs.(t))
          ~volume:(fun s d _ -> Hashtbl.find vols (s, d))
          skeleton
  in
  let plat = paper_platform spec ~rng in
  let dag = Calibrate.calibrated dag plat ~granularity in
  { dag; plat; granularity }

let generate s ~rng ?(granularity = 1.0) () =
  match s.impl with
  | Paper pspec -> paper_instance pspec ~rng ~granularity
  | Classic_fig1 ->
      {
        Paper_workload.dag = Classic.fig1_graph;
        plat = Classic.fig1_platform;
        granularity;
      }
  | Classic_fig2 m ->
      {
        Paper_workload.dag = Classic.fig2_graph;
        plat = Classic.fig2_platform ~m;
        granularity;
      }
  | Huge hspec -> Huge.instance hspec ~rng ~granularity
