(* The [huge] workload family: million-task layered pipelines on
   thousand-processor platforms, built directly through [Dag.Builder] in
   O(v + e) with no post-pass.

   The graph is a grid of [layers × width] tasks.  Each task feeds the
   task directly below it (a straight chain edge — out-degree 1 into
   in-degree 1, exactly what the hierarchical schedulers can contract);
   every [cross_every]-th layer, every eighth lane also feeds its right
   neighbor in the next layer, so the graph is connected across lanes and
   placement is not embarrassingly parallel.  Weights are drawn uniformly
   from the spec ranges; the granularity knob scales the communication
   volumes at draw time (the paper-workload calibration pass would copy a
   million-task graph twice, so the huge family bakes it in instead).

   The matching throughput target is analytic rather than drawn: with
   [v · mean_exec] total work spread over [m] processors of mean drawn
   speed, utilization [u] corresponds to [T = u · m · mean_speed /
   (v · mean_exec)].  The default 0.5 leaves best-effort schedulers a
   feasible condition (1) while keeping every processor busy. *)

type spec = {
  tasks : int;
  m : int;
  cross_every : int;  (** layers between cross-lane edges *)
  exec_range : float * float;
  volume_range : float * float;
  speed_range : float * float;
  unit_delay : float; (** uniform link delay; the delay matrix is constant *)
  target_utilization : float;
}

let default_spec =
  {
    tasks = 1_000_000;
    m = 1_000;
    cross_every = 16;
    exec_range = (50.0, 150.0);
    volume_range = (50.0, 150.0);
    speed_range = (0.5, 1.0);
    unit_delay = 0.75;
    target_utilization = 0.5;
  }

let mean (lo, hi) = 0.5 *. (lo +. hi)

let throughput spec ~eps =
  spec.target_utilization *. float_of_int spec.m *. mean spec.speed_range
  /. (float_of_int spec.tasks *. mean spec.exec_range
     *. float_of_int (eps + 1))

let platform spec ~rng =
  let lo_s, hi_s = spec.speed_range in
  let speeds = Array.make spec.m 1.0 in
  for p = 0 to spec.m - 1 do
    speeds.(p) <- Rng.uniform rng ~lo:lo_s ~hi:hi_s
  done;
  let bw = Array.make_matrix spec.m spec.m (1.0 /. spec.unit_delay) in
  Platform.create ~name:"huge-platform" ~speeds ~bandwidth:bw ()

let instance spec ~rng ~granularity =
  if spec.tasks < 1 then invalid_arg "Huge.instance: empty graph";
  let v = spec.tasks in
  let width = max 1 spec.m in
  let b = Dag.Builder.create ~name:(Printf.sprintf "huge-v%d" v) v in
  let lo_e, hi_e = spec.exec_range in
  for t = 0 to v - 1 do
    Dag.Builder.set_exec b t (Rng.uniform rng ~lo:lo_e ~hi:hi_e)
  done;
  let lo_v, hi_v = spec.volume_range in
  let vol () = granularity *. Rng.uniform rng ~lo:lo_v ~hi:hi_v in
  for t = 0 to v - 1 do
    let layer = t / width and lane = t mod width in
    let below = t + width in
    if below < v then Dag.Builder.add_edge b ~volume:(vol ()) t below;
    if
      layer mod spec.cross_every = 0
      && lane mod 8 = 0
      && width > 1
    then begin
      let right = (layer + 1) * width + ((lane + 1) mod width) in
      if right < v && right <> below then
        Dag.Builder.add_edge b ~volume:(vol ()) t right
    end
  done;
  let dag = Dag.Builder.build b in
  let plat = platform spec ~rng in
  { Paper_workload.dag; plat; granularity }
