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
}

(* Per-replica queue bound of the shedding run. *)
let queue_bound = 4

(* Replication degree for LTF / R-LTF. *)
let eps = 1

let default =
  {
    seed = 2009;
    reps = 5;
    loads = [ 0.5; 0.7; 0.9; 1.0; 1.1; 1.3; 1.5 ];
    n_items = 300;
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

(* The sweep's trial seed ignores the load on purpose: with equal RNG
   state the arrival quanta are identical across sweep points (common
   random numbers), so each curve moves along the sweep because of the
   offered rate, never because of resampling noise. *)
let measure config profile load ~rng contender inst =
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
               (Engine.Run.open_ ~queue_bound
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

(* The latency chart interleaves a p50 and a p99 series per algorithm so
   the divergence past saturation is visible in one plot. *)
let sweep config ~out_dir ~jobs profile =
  let name = profile_name profile in
  let sweep =
    Fig_common.sweep ~jobs ~seed:config.seed ~eps ~xs:config.loads
      ~reps:config.reps (measure config profile)
  in
  let chart what heading projections =
    Fig_common.chart
      ~path:
        (Filename.concat out_dir
           ("fig-traffic-" ^ what ^ "-" ^ name ^ ".csv"))
      ~x_header:"offered_load" heading
      (Fig_common.series_by sweep projections)
  in
  chart "latency"
    (Fig_common.Plot
       {
         title =
           Printf.sprintf
             "Sojourn percentiles vs offered load (%s, eps=%d, %d items, %d \
              graphs/point)"
             name eps config.n_items config.reps;
         x_label = "offered load (rate x period)";
         y_label = "sojourn";
       })
    [ ("p50", fun p -> p.p50); ("p99", fun p -> p.p99) ];
  chart "queue"
    (Fig_common.Line "Peak input-queue occupancy (unbounded, backpressure):")
    [ ("", fun p -> p.peak_queue) ];
  chart "drops"
    (Fig_common.Line
       (Printf.sprintf
          "Shed items (%% of arrivals, queue bound %d, drop-newest):"
          queue_bound))
    [ ("", fun p -> p.drop_pct) ]

let run ?(out_dir = "results") ?(jobs = 1) ~(config : config) () =
  sweep config ~out_dir ~jobs Smooth;
  sweep config ~out_dir ~jobs Bursty
