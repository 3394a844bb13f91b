(* Open-system traffic sweep (Extension K): offered load and burstiness
   against tail latency, queue occupancy and drop rate.

   The paper's experiments close the loop — item k enters at exactly
   k · period, so the source is perfectly matched to the pipeline.  This
   figure opens it: arrivals follow a Poisson or bursty (MMPP) process
   whose mean rate is a multiple [load] of the schedule's achieved
   service rate 1/period.  Below load 1 the queues stay shallow and the
   percentiles sit together; past saturation the backlog grows without
   bound and p99 tears away from p50 — the textbook open-queue knee,
   measured through the same one-port engine the closed figures use. *)

type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  loads : float list;  (** offered load: mean arrival rate × period *)
  n_items : int;  (** arrivals simulated per run *)
  queue_bound : int;  (** per-replica queue bound of the shedding run *)
  eps : int;  (** replication degree for LTF / R-LTF *)
  spec : Spec.t;
}

(* Same reduced scale as the recovery timelines: the cost of a trial is
   the number of items through the event engine, not the graph size. *)
let spec =
  Spec.paper ~name:"paper-traffic" ~descr:"reduced scale for the event engine"
    {
      Paper_workload.default_spec with
      Paper_workload.tasks_range = (30, 60);
      m = 12;
    }

let default =
  {
    seed = 2009;
    reps = 5;
    loads = [ 0.5; 0.7; 0.9; 1.0; 1.1; 1.3; 1.5 ];
    n_items = 300;
    queue_bound = 4;
    eps = 1;
    spec;
  }

let quick =
  { default with reps = 2; loads = [ 0.6; 1.0; 1.4 ]; n_items = 80 }

(* The two traffic shapes of the sweep.  Both are normalized to the same
   mean rate, so a bursty column differs from its Poisson neighbour only
   in variance — bursts at 1.8× the mean alternating with lulls at 0.2×,
   in phases long enough (20 service periods) to fill and drain queues. *)
type profile = Smooth | Bursty

let profile_name = function Smooth -> "poisson" | Bursty -> "mmpp"

let arrival_process profile ~rate ~period =
  match profile with
  | Smooth -> Arrival.Poisson { rate }
  | Bursty ->
      Arrival.Mmpp
        {
          burst_rate = 1.8 *. rate;
          idle_rate = 0.2 *. rate;
          mean_burst = 20.0 *. period;
          mean_idle = 20.0 *. period;
        }

(* What one algorithm contributed at one sweep point: the latency
   percentiles and peak queue of an unbounded backpressure run, and the
   shed fraction of a bounded Drop_newest run over the same arrivals. *)
type point = {
  p50 : float;
  p99 : float;
  peak_queue : float;
  drop_pct : float;
}

let measure config ~profile ~load ~rng contender inst =
  match Fig_common.schedule contender inst with
  | None -> None
  | Some (mapping, throughput) ->
      (* The achieved period is the service interval the load multiplies:
         load 1.0 offers work exactly as fast as the pipeline drains it. *)
      let p = Fig_common.service_period mapping ~throughput in
      let rate = load /. p in
      (* Materialize the arrivals once and replay them as a trace, so the
         percentile run and the shedding run see the same traffic (and the
         load sweep re-times the same exponential quanta — CRN). *)
      let offsets =
        Arrival.times ~rng ~n:config.n_items
          (arrival_process profile ~rate ~period:p)
      in
      let trace = Arrival.Trace (Array.to_list offsets) in
      let prog = Program_cache.program mapping in
      (* One arena serves both runs of this sweep point (they execute
         sequentially), and neither run records per-transfer messages —
         the point only needs latency percentiles and queue counters. *)
      let state = Engine.Run_state.create prog in
      let open_run =
        Engine.simulate ~state
          ~config:
            (Engine.Run.without_messages
               (Engine.Run.open_ ~n_items:config.n_items trace))
          prog
      in
      let sojourn_buf = Array.make config.n_items 0.0 in
      let delivered = Engine.sojourns_into open_run sojourn_buf in
      let q = Stats.quantiles_slice sojourn_buf ~len:delivered in
      let shed_run =
        Engine.simulate ~state
          ~config:
            (Engine.Run.without_messages
               (Engine.Run.open_ ~queue_bound:config.queue_bound
                  ~policy:Engine.Run.Drop_newest ~n_items:config.n_items trace))
          prog
      in
      Some
        {
          p50 = q.Stats.p50;
          p99 = q.Stats.p99;
          peak_queue = float_of_int open_run.Engine.peak_queue;
          drop_pct =
            100.0
            *. float_of_int shed_run.Engine.dropped
            /. float_of_int config.n_items;
        }

type trial = { load : float; rep : int }

(* The trial seed ignores the load on purpose: with equal RNG state the
   arrival quanta are identical across sweep points (common random
   numbers), so each curve moves along the sweep because of the offered
   rate, never because of resampling noise. *)
let run_trial config profile t =
  let rng, inst =
    Fig_common.rep_instance config.spec ~seed:config.seed ~rep:t.rep
  in
  Fig_common.measure_contenders ~eps:config.eps ~rng inst
    (measure config ~profile ~load:t.load)

(* One labelled series per (algorithm, projection): the latency chart
   interleaves a p50 and a p99 series per algorithm so the divergence
   past saturation is visible in one plot. *)
let series config results =
  Fig_common.series_by ~eps:config.eps ~xs:config.loads
    ~x_of:(fun t -> t.load) results

let csv = Fig_latency.csv_of_series ~x_header:"offered_load"

let sweep config ~out_dir ~jobs profile =
  let name = profile_name profile in
  let trials =
    List.concat_map
      (fun load -> List.init config.reps (fun rep -> { load; rep }))
      config.loads
  in
  (* A trial is a pure function of its record (the RNG stream derives
     from the seed and rep alone), so the sweep runs on the domain pool
     with bit-identical output for every [jobs]. *)
  let measured = Parallel.map_seeded ~jobs (run_trial config profile) trials in
  let results = List.combine trials measured in
  let latency =
    series config results [ ("p50", fun p -> p.p50); ("p99", fun p -> p.p99) ]
  in
  let queue = series config results [ ("", fun p -> p.peak_queue) ] in
  let drops = series config results [ ("", fun p -> p.drop_pct) ] in
  Ascii_plot.print
    ~title:
      (Printf.sprintf
         "Sojourn percentiles vs offered load (%s, eps=%d, %d items, %d \
          graphs/point)"
         name config.eps config.n_items config.reps)
    ~x_label:"offered load (rate x period)" ~y_label:"sojourn" latency;
  Fig_latency.table_of_series latency;
  Printf.printf "Peak input-queue occupancy (unbounded, backpressure):\n";
  Fig_latency.table_of_series queue;
  Printf.printf "Shed items (%% of arrivals, queue bound %d, drop-newest):\n"
    config.queue_bound;
  Fig_latency.table_of_series drops;
  csv (Filename.concat out_dir ("fig-traffic-latency-" ^ name ^ ".csv")) latency;
  csv (Filename.concat out_dir ("fig-traffic-queue-" ^ name ^ ".csv")) queue;
  csv (Filename.concat out_dir ("fig-traffic-drops-" ^ name ^ ".csv")) drops;
  latency

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  let smooth = sweep config ~out_dir ~jobs Smooth in
  let bursty = sweep config ~out_dir ~jobs Bursty in
  (smooth, bursty)
