(* End-to-end benchmark of the streamsched libraries.

   Three closed-loop workloads drive the libraries through their public
   functions, one job at a time on one domain: the next job starts when the
   previous one returns.  Every input is generated in set-up from --seed.

   - paper-sweep: one §5 trial (generate, LTF, R-LTF, fault-free
     reference, stage-model latencies and crash draws);
   - open-stream: one open-traffic Engine.simulate run on a fixed pool of
     compiled LTF / R-LTF mappings;
   - crash-recovery: sampled crash estimate, exact reliability calculus and
     one Stream_ops horizon on a fixed pool of R-LTF mappings.

   Untraced (--trace 0) the run reports the end-to-end metrics, every
   timing scaled to a reference speed of the host (see Speed).  Traced
   (--trace 1) it measures an untraced half and a traced half, wraps each
   public call in the benchmark's own spans (self time = span minus child
   spans) and reads the counters the libraries record in Obs.  Outputs are
   checked outside the timed region; the last stdout line is one JSON
   object {correct, attempted, failed, metrics}.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--size full|tiny] [--corrupt] [--commit SHA] *)

let now = Unix.gettimeofday

(* ---- the benchmark's own spans ------------------------------------------ *)

module Spans = struct
  type frame = {
    name : string;
    t0 : float;
    a0 : float;
    mutable child_t : float;
    mutable child_a : float;
  }

  type acc = { mutable self_t : float; mutable self_a : float }

  let on = ref false
  let stack : frame list ref = ref []
  let table : (string, acc) Hashtbl.t = Hashtbl.create 32

  let reset () =
    Hashtbl.reset table;
    stack := []

  let acc name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { self_t = 0.0; self_a = 0.0 } in
        Hashtbl.add table name a;
        a

  let close fr =
    let dt = now () -. fr.t0 and da = Gc.allocated_bytes () -. fr.a0 in
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    (match !stack with
    | parent :: _ ->
        parent.child_t <- parent.child_t +. dt;
        parent.child_a <- parent.child_a +. da
    | [] -> ());
    let a = acc fr.name in
    a.self_t <- a.self_t +. dt -. fr.child_t;
    a.self_a <- a.self_a +. da -. fr.child_a

  (* Time [f] under [name]; a no-op wrapper while tracing is off. *)
  let span name f =
    if not !on then f ()
    else begin
      let a0 = Gc.allocated_bytes () in
      let fr = { name; t0 = now (); a0; child_t = 0.0; child_a = 0.0 } in
      stack := fr :: !stack;
      match f () with
      | v ->
          close fr;
          v
      | exception e ->
          close fr;
          raise e
    end

  let self_seconds name =
    match Hashtbl.find_opt table name with Some a -> a.self_t | None -> 0.0

  let self_bytes name =
    match Hashtbl.find_opt table name with Some a -> a.self_a | None -> 0.0
end

(* The span names, in report order; the set-up phase reuses them. *)
let layer_spans =
  [
    "workload.generate"; "core.ltf"; "core.rltf"; "core.ff"; "sim.compile";
    "sim.simulate"; "sim.stage"; "sim.crash.estimate"; "traffic.times";
    "rel.analyze"; "rel.eval"; "ops.run"; "exp.stats";
  ]

(* ---- small statistics ------------------------------------------------- *)

(* R-7 percentile (linear interpolation between closest ranks). *)
let percentile p values =
  let s = Array.copy values in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p /. 100.0 in
    let i = truncate h in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median values = percentile 50.0 values

let mean_finite values =
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun v ->
      if Float.is_finite v then begin
        sum := !sum +. v;
        incr n
      end)
    values;
  if !n = 0 then nan else !sum /. float_of_int !n

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* NaN-aware bit equality: two NaNs are equal, 0.0 and -0.0 are not. *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_float_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_float x y
  | _ -> false

(* ---- the host's speed -------------------------------------------------- *)

(* The benchmark runs on shared hosts whose speed drifts by tens of percent
   over seconds and over minutes, with no steal time to show for it.  So
   every timing is reported at a fixed reference speed: right after each
   timed piece of work the benchmark times a fixed kernel of its own, and
   scales the work's wall time by reference / kernel time.  The kernel is
   the mix the workloads run (short lists of boxed pairs: build, sort with
   polymorphic compare, hash), so it slows down with the host the way they
   do.  It allocates about 130k words, half the default minor heap, and
   starts on an empty one, so it never collects: its time depends on the
   host, not on the heap a workload leaves behind, and no library change
   can move it. *)
module Speed = struct
  let kernel () =
    let acc = ref 0 in
    for r = 1 to 40 do
      let l = List.init 100 (fun i -> (((i * 7919) + r) land 4095, Float.of_int i)) in
      let l = List.sort compare l in
      let h = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace h (k land 63) v) l;
      acc := !acc + Hashtbl.length h + List.length l
    done;
    !acc

  (* The kernel's time at the reference speed, near its typical time on a
     2-vCPU cloud VM, so scaled timings read close to wall times there. *)
  let reference_s = 0.6e-3

  (* Seconds the kernel takes now. *)
  let sample () =
    Gc.minor ();
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    now () -. t0

  (* [seconds] of work, measured while the kernel took [kernel_s], at the
     reference speed. *)
  let scale ~kernel_s seconds = seconds *. reference_s /. kernel_s
end

(* ---- the workload interface ------------------------------------------- *)

type size = Full | Tiny

(* What one job did, summed over a phase. *)
type tally = {
  instances : int;  (** workload instances generated *)
  items : int;  (** items delivered through the event-driven engine *)
  arrivals : int;  (** arrival offsets materialized *)
  errors : int;  (** scheduling calls that returned an error *)
}

let no_tally = { instances = 0; items = 0; arrivals = 0; errors = 0 }

let add_tally a b =
  {
    instances = a.instances + b.instances;
    items = a.items + b.items;
    arrivals = a.arrivals + b.arrivals;
    errors = a.errors + b.errors;
  }

module type WORKLOAD = sig
  type setup
  type out

  val name : string

  val setup : size -> seed:int -> setup
  (** Generate every input from the seed and do the per-run set-up work;
      clears the shared compile caches first, so repeated set-ups do the
      same work. *)

  val pool : setup -> int
  (** Distinct jobs; the timed loop cycles through them. *)

  val job : setup -> int -> out

  val tally : out -> tally
  val corrupt : out -> out

  val light : out -> out
  (** What a repeat run of a pool entry keeps: the timed loop holds the
      first output of each entry whole and drops the parts only that one
      is checked on, so retained memory stays flat over a run. *)

  val check : setup -> int -> out -> bool
  (** Whether one job's output is correct (run outside the timed region). *)

  val outcomes : setup -> out array -> (string * float) list
  (** Deterministic per-seed outcomes over one output per pool entry, named
      as in [outcome_units]. *)
end

let clear_caches () =
  Program_cache.clear Program_cache.programs;
  Program_cache.clear Stage_latency.plans

let best_effort = Scheduler.(default |> with_mode Best_effort)

(* Task counts follow the golden-ratio sequence over [lo, hi] instead of
   an independent draw per graph: any run of consecutive jobs covers the
   range evenly, so the job-size mix (and with it every timing) is nearly
   the same for every seed.  Graph shape, weights and platform still come
   from the seed. *)
let stratified_tasks ~lo ~hi i =
  let golden = 0.6180339887498949 in
  let x = Float.of_int i *. golden in
  lo + truncate ((x -. Float.of_int (truncate x)) *. Float.of_int (hi - lo + 1))

(* The paper's layered family with the task count pinned. *)
let paper_spec ?(m = 20) ~tasks () =
  Spec.paper ~name:(Printf.sprintf "paper-layered-v%d-m%d" tasks m)
    { Paper_workload.default_spec with Paper_workload.tasks_range = (tasks, tasks); m }

(* ---- paper-sweep ------------------------------------------------------ *)

module Paper_sweep : WORKLOAD = struct
  type out = {
    sample : Fig_common.sample;
    maps : Mapping.t list;  (** the LTF / R-LTF mappings that scheduled *)
    errors : int;
  }

  type setup = {
    trials : Fig_common.trial array;
    refs : Fig_common.sample Lazy.t array;
  }

  let name = "paper-sweep"

  let tally o = { no_tally with instances = 1; errors = o.errors }

  (* The trial sequence of [Fig_common.run_trial], with a span around each
     public call. *)
  let run (t : Fig_common.trial) =
    let config = t.Fig_common.config and granularity = t.Fig_common.granularity in
    let spec = config.Fig_common.spec and opts = config.Fig_common.sched in
    let throughput = Spec.throughput spec ~eps:config.Fig_common.eps in
    let rng = Rng.create ~seed:(Fig_common.trial_seed t) in
    let inst =
      Spans.span "workload.generate" (fun () ->
          Spec.generate spec ~rng ~granularity ())
    in
    let ltf_rng = Rng.split rng in
    let rltf_rng = Rng.split rng in
    let dag = inst.Paper_workload.dag and platform = inst.Paper_workload.plat in
    let prob = Types.problem ~dag ~platform ~eps:config.Fig_common.eps ~throughput in
    let measure rng outcome =
      Spans.span "sim.stage" (fun () ->
          Fig_common.measure_algo config ~throughput ~rng outcome)
    in
    let ltf_out = Spans.span "core.ltf" (fun () -> Ltf.schedule ~opts prob) in
    let ltf = measure ltf_rng ltf_out in
    let rltf_out = Spans.span "core.rltf" (fun () -> Rltf.schedule ~opts prob) in
    let rltf = measure rltf_rng rltf_out in
    let ff_throughput = Spec.throughput spec ~eps:0 in
    let ff_out =
      Spans.span "core.ff" (fun () ->
          Fault_free.run ~opts ~dag ~platform ~throughput:ff_throughput ())
    in
    let ff_sim =
      match ff_out with
      | Error _ -> nan
      | Ok ff ->
          Spans.span "sim.stage" (fun () ->
              Option.value ~default:nan
                (Stage_latency.latency_of_plan (Stage_latency.cached_plan ff)
                   ~throughput:ff_throughput))
    in
    let outcomes = [ ltf_out; rltf_out; ff_out ] in
    {
      sample = { Fig_common.granularity; ltf; rltf; ff_sim };
      maps = List.filter_map Result.to_option [ ltf_out; rltf_out ];
      errors = List.length (List.filter Result.is_error outcomes);
    }

  (* Spec.default's recipe (paper-layered, m = 20, v ∈ [50, 150]) at
     ε ∈ {1, 3} with c = ε crashes and 3 crash draws, every granularity
     0.2 … 2.0, [reps] graphs per point.  Trial [i] alternates ε fastest,
     then granularity, so any run of consecutive trials mixes them
     evenly; each ε has its own seed, so the pool holds distinct graphs. *)
  let trials size ~seed =
    let rng = Rng.create ~seed in
    let reps, grans =
      match size with
      | Full -> (10, Array.of_list Paper_workload.granularities)
      | Tiny -> (1, [| 0.4; 1.6 |])
    in
    let seeds = [| Rng.int rng 1_000_000_000; Rng.int rng 1_000_000_000 |] in
    let n_grans = Array.length grans in
    Array.init (2 * n_grans * reps) (fun i ->
        let e = i mod 2 and granularity = grans.(i / 2 mod n_grans) in
        let eps = if e = 0 then 1 else 3 in
        let config =
          {
            (Fig_common.default ~eps ~crashes:eps) with
            Fig_common.seed = seeds.(e);
            spec = paper_spec ~tasks:(stratified_tasks ~lo:50 ~hi:150 i) ();
          }
        in
        { Fig_common.config; granularity; rep = i / (2 * n_grans) })

  let setup size ~seed =
    clear_caches ();
    let trials = trials size ~seed in
    (* Warm-up: three trials per ε on graph indices past the pool, so the
       timed jobs do not start cold, the pool's plans stay uncached and the
       set-up time does not hinge on one graph. *)
    let n = Array.length trials in
    Array.iter
      (fun (t : Fig_common.trial) ->
        ignore (run { t with Fig_common.rep = t.Fig_common.rep + 1_000 }))
      (Array.sub trials 0 (min 6 n));
    { trials; refs = Array.map (fun t -> lazy (Fig_common.run_trial t)) trials }

  let pool st = Array.length st.trials
  let job st k = run st.trials.(k)

  let corrupt o =
    let r = o.sample.Fig_common.rltf in
    let crash = if Float.is_nan r.Fig_common.crash then 1.0 else r.Fig_common.crash +. 1.0 in
    { o with sample = { o.sample with Fig_common.rltf = { r with Fig_common.crash } } }

  let same_result (a : Fig_common.trial_result) (b : Fig_common.trial_result) =
    same_float a.bound b.bound && same_float a.sim b.sim
    && same_float a.crash b.crash
    && same_float a.defeat_rate b.defeat_rate
    && a.meets = b.meets

  let same_sample (a : Fig_common.sample) (b : Fig_common.sample) =
    same_float a.granularity b.granularity
    && same_result a.ltf b.ltf && same_result a.rltf b.rltf
    && same_float a.ff_sim b.ff_sim

  (* Validation is exhaustive over failure sets, so only the first output
     of a pool entry keeps its mappings; equal samples stand for equal
     mappings on the repeats. *)
  let light o = { o with maps = [] }

  let check st k o =
    same_sample o.sample (Lazy.force st.refs.(k))
    && List.for_all
         (fun m -> Validate.structure m = [] && Validate.fault_tolerance m = [])
         o.maps

  let outcomes _ firsts =
    let ratios =
      Array.to_list firsts
      |> List.map (fun o -> o.sample.Fig_common.rltf.Fig_common.crash /. o.sample.Fig_common.ff_sim)
    in
    [ ("latency_overhead", mean_finite ratios) ]
end

(* ---- open-stream ------------------------------------------------------ *)

module Open_stream : WORKLOAD = struct
  type slot = {
    prog : Engine.program;
    state : Engine.Run_state.t;
    period : float;  (** achieved service interval the load multiplies *)
  }

  type spec = {
    slot : int;
    bursty : bool;
    load : float;
    faulty : bool;
    arrival_seed : int;
  }

  type setup = {
    slots : slot array;
    jobs : spec array;
    n_items : int;
    buf : float array;
  }

  type out = {
    latency : float option array;
    dropped : int;
    stalled : int;
    n : int;
    faults_on : bool;
    p99 : float;
  }

  let name = "open-stream"

  let queue_bound = 4
  let loads = [ 0.7; 1.0; 1.3 ]

  (* The traffic figure's instance shape: 30–60 tasks on 12 processors. *)
  let spec i = paper_spec ~m:12 ~tasks:(stratified_tasks ~lo:30 ~hi:60 i) ()

  let delivered o =
    Array.fold_left (fun n l -> if Option.is_some l then n + 1 else n) 0 o.latency

  let tally o = { no_tally with items = delivered o; arrivals = o.n }

  let arrival ~bursty ~rate ~period =
    if bursty then
      Arrival.Mmpp
        {
          burst_rate = 1.8 *. rate;
          idle_rate = 0.2 *. rate;
          mean_burst = 20.0 *. period;
          mean_idle = 20.0 *. period;
        }
    else Arrival.Poisson { rate }

  (* Small transient execution / transfer fault rates with a retry budget
     deep enough that no work unit is ever abandoned. *)
  let faults ~seed ~period =
    {
      Faults.transient =
        { Faults.Transient.none with exec_rate = 0.01; comm_rate = 0.01; seed };
      retry = Faults.Backoff.make ~base_delay:(0.05 *. period) ~max_retries:4 ();
      gray = Faults.Gray.none;
    }

  let run st j =
    let slot = st.slots.(j.slot) in
    let rate = j.load /. slot.period in
    let rng = Rng.create ~seed:j.arrival_seed in
    let offsets =
      Spans.span "traffic.times" (fun () ->
          Arrival.times ~rng ~n:st.n_items
            (arrival ~bursty:j.bursty ~rate ~period:slot.period))
    in
    let config =
      Engine.Run.without_messages
        (Engine.Run.open_ ~queue_bound ~policy:Engine.Run.Block
           ~n_items:st.n_items
           (Arrival.Trace (Array.to_list offsets)))
    in
    let config =
      if j.faulty then
        Engine.Run.with_faults (faults ~seed:j.arrival_seed ~period:slot.period) config
      else config
    in
    let r =
      Spans.span "sim.simulate" (fun () ->
          Engine.simulate ~state:slot.state ~config slot.prog)
    in
    let len = Engine.sojourns_into r st.buf in
    let q = Spans.span "exp.stats" (fun () -> Stats.quantiles_slice st.buf ~len) in
    {
      latency = r.Engine.item_latency;
      dropped = r.Engine.dropped;
      stalled = r.Engine.stalled;
      n = st.n_items;
      faults_on = j.faulty;
      p99 = q.Stats.p99;
    }

  let setup size ~seed =
    clear_caches ();
    let rng = Rng.create ~seed in
    let graphs, n_items = match size with Full -> (64, 300) | Tiny -> (1, 40) in
    let throughput = Paper_workload.throughput ~eps:1 in
    let slots =
      List.init graphs (fun g ->
          let inst =
            Spans.span "workload.generate" (fun () ->
                Spec.generate (spec g) ~rng:(Rng.split rng) ~granularity:1.0 ())
          in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps:1 ~throughput
          in
          [
            Spans.span "core.rltf" (fun () -> Rltf.schedule ~opts:best_effort prob);
            Spans.span "core.ltf" (fun () -> Ltf.schedule ~opts:best_effort prob);
          ])
      |> List.concat
      |> List.filter_map Result.to_option
      |> List.map (fun mapping ->
             let prog =
               Spans.span "sim.compile" (fun () -> Program_cache.program mapping)
             in
             {
               prog;
               state = Engine.Run_state.create prog;
               period = Float.max (1.0 /. throughput) (Metrics.period mapping);
             })
      |> Array.of_list
    in
    (* Every load on every mapping, under one of the four arrival × fault
       pairings in turn: the pool stays balanced and small enough for a run
       to cover it more than once, while many mappings keep one unusual
       mapping from swaying the mix. *)
    let pairings = [| (false, false); (true, true); (false, true); (true, false) |] in
    let jobs =
      List.concat_map
        (fun slot ->
          let bursty, faulty = pairings.(slot mod 4) in
          List.map
            (fun load ->
              { slot; bursty; load; faulty; arrival_seed = Rng.int rng 1_000_000_000 })
            loads)
        (List.init (Array.length slots) Fun.id)
      |> Array.of_list
    in
    Rng.shuffle rng jobs;
    { slots; jobs; n_items; buf = Array.make n_items 0.0 }

  let pool st = Array.length st.jobs
  let job st k = run st st.jobs.(k)

  let corrupt o =
    let latency = Array.copy o.latency in
    (match Array.find_index Option.is_some latency with
    | Some i -> latency.(i) <- Some (-1.0)
    | None -> if Array.length latency > 0 then latency.(0) <- Some (-1.0));
    { o with latency }

  let light = Fun.id

  let check _ _ o =
    let sane =
      Array.for_all
        (function None -> true | Some v -> Float.is_finite v && v >= 0.0)
        o.latency
    in
    let delivered = delivered o in
    sane
    && o.dropped + o.stalled <= o.n - delivered
    && (o.faults_on || delivered = o.n - o.dropped - o.stalled)

  let outcomes _ firsts =
    let sojourns =
      Array.to_list firsts
      |> List.concat_map (fun o -> List.filter_map Fun.id (Array.to_list o.latency))
      |> Array.of_list
    in
    [ ("sojourn_p99_tu", percentile 99.0 sojourns) ]
end

(* ---- crash-recovery --------------------------------------------------- *)

module Crash_recovery : WORKLOAD = struct
  type target = { mapping : Mapping.t; eps : int; throughput : float }

  type spec = { target : int; crash_seed : int; ops_seed : int }

  type setup = {
    targets : target array;
    jobs : spec array;
    draws : int;
    horizon_items : int;
    exact : float Lazy.t array;  (** per target *)
    parallel : Crash.estimate Lazy.t array;  (** per job *)
  }

  type out = {
    est : Crash.estimate;
    p_defeat : float;
    dist : (float * float) list;
    report : Stream_ops.report;
  }

  let name = "crash-recovery"

  let tally o =
    {
      no_tally with
      items =
        o.est.Crash.est_evaluations - o.est.Crash.est_defeated
        + o.report.Stream_ops.delivered;
    }

  let sampled ~seed ~eps ~draws =
    Crash.Sampled { crashes = eps + 1; draws; rng = Rng.create ~seed }

  (* Expected two crashes over the horizon, across the whole platform. *)
  let ops_config t ~horizon_items =
    let p = Float.max (1.0 /. t.throughput) (Metrics.period t.mapping) in
    let horizon = float_of_int horizon_items *. p in
    let m = Platform.size (Mapping.platform t.mapping) in
    {
      Stream_ops.default_config with
      horizon;
      hazard = Failure_gen.uniform ~lambda:(2.0 /. (float_of_int m *. horizon));
      reconfig_delay = 2.0 *. p;
      max_items_per_epoch = horizon_items + 8;
    }

  let run st j =
    let t = st.targets.(j.target) in
    let est =
      Spans.span "sim.crash.estimate" (fun () ->
          Crash.estimate ~source:(Crash.Of_mapping t.mapping)
            ~method_:(sampled ~seed:j.crash_seed ~eps:t.eps ~draws:st.draws)
            ())
    in
    let model = Reliability.Uniform_crashes (t.eps + 1) in
    let rel =
      Spans.span "rel.analyze" (fun () ->
          Reliability.analyze ~max_cut_card:(t.eps + 1) t.mapping)
    in
    let p_defeat, dist =
      Spans.span "rel.eval" (fun () ->
          ( Reliability.defeat_probability rel model,
            Reliability.latency_distribution rel ~throughput:t.throughput model ))
    in
    let report =
      Spans.span "ops.run" (fun () ->
          Stream_ops.run
            ~config:(ops_config t ~horizon_items:st.horizon_items)
            ~rng:(Rng.create ~seed:j.ops_seed) ~throughput:t.throughput t.mapping)
    in
    { est; p_defeat; dist; report }

  let setup size ~seed =
    clear_caches ();
    let rng = Rng.create ~seed in
    let graphs, variants, draws, horizon_items =
      match size with Full -> (24, 2, 200, 80) | Tiny -> (1, 1, 20, 20)
    in
    let targets =
      List.init graphs (fun g ->
          let spec = paper_spec ~tasks:(stratified_tasks ~lo:50 ~hi:150 g) () in
          let inst =
            Spans.span "workload.generate" (fun () ->
                Spec.generate spec ~rng:(Rng.split rng) ~granularity:1.0 ())
          in
          List.filter_map
            (fun eps ->
              let throughput = Spec.throughput spec ~eps in
              let prob =
                Types.problem ~dag:inst.Paper_workload.dag
                  ~platform:inst.Paper_workload.plat ~eps ~throughput
              in
              match Spans.span "core.rltf" (fun () -> Rltf.schedule ~opts:best_effort prob) with
              | Error _ -> None
              | Ok mapping ->
                  ignore (Spans.span "sim.compile" (fun () -> Program_cache.program mapping));
                  Some { mapping; eps; throughput })
            [ 1; 2 ])
      |> List.concat |> Array.of_list
    in
    let jobs =
      List.concat_map
        (fun _ ->
          List.init (Array.length targets) (fun target ->
              {
                target;
                crash_seed = Rng.int rng 1_000_000_000;
                ops_seed = Rng.int rng 1_000_000_000;
              }))
        (List.init variants Fun.id)
      |> Array.of_list
    in
    (* References for the checks: the Exact enumeration through the engine
       and the same Sampled estimate fanned out over two domains. *)
    let exact t =
      lazy
        (Crash.estimate ~source:(Crash.Of_mapping t.mapping)
           ~method_:(Crash.Exact { crashes = t.eps + 1; max_evaluations = None })
           ())
          .Crash.est_p_defeat
    in
    let parallel j =
      lazy
        (let t = targets.(j.target) in
         Crash.estimate ~jobs:2 ~source:(Crash.Of_mapping t.mapping)
           ~method_:(sampled ~seed:j.crash_seed ~eps:t.eps ~draws)
           ())
    in
    {
      targets;
      jobs;
      draws;
      horizon_items;
      exact = Array.map exact targets;
      parallel = Array.map parallel jobs;
    }

  let pool st = Array.length st.jobs
  let job st k = run st st.jobs.(k)
  let corrupt o = { o with p_defeat = o.p_defeat +. 0.5 }

  let same_estimate (a : Crash.estimate) (b : Crash.estimate) =
    a.est_crashes = b.est_crashes && a.est_draws = b.est_draws
    && a.est_evaluations = b.est_evaluations
    && a.est_defeated = b.est_defeated
    && same_float a.est_p_defeat b.est_p_defeat
    && same_float_opt a.est_mean b.est_mean
    && a.est_failed = b.est_failed

  let light = Fun.id

  let check st k o =
    let a = o.report.Stream_ops.availability in
    Float.abs (o.p_defeat -. Lazy.force st.exact.(st.jobs.(k).target)) <= 1e-12
    && same_estimate o.est (Lazy.force st.parallel.(k))
    && a >= 0.0 && a <= 1.0

  let outcomes _ firsts =
    [
      ( "availability",
        mean_finite
          (Array.to_list firsts |> List.map (fun o -> o.report.Stream_ops.availability)) );
    ]
end

(* ---- one run ---------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  corrupt : bool;
  commit : string;
}

type metric = { mname : string; value : float; unit_ : string; note : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** what the JSON line carries *)
  extra : metric list;  (** printed for people, not in the JSON line *)
}

let metric ?(note = "") mname value unit_ = { mname; value; unit_; note }

(* Every workload-specific outcome, so each run reports the same keys
   (0 where the workload does not measure it). *)
let outcome_units =
  [ ("latency_overhead", "ratio"); ("sojourn_p99_tu", "tu"); ("availability", "ratio") ]

module Runner (W : WORKLOAD) = struct
  type phase = {
    durations : float array;  (** wall seconds per completed job *)
    scaled : float array;  (** the same at the reference speed *)
    kernel_s : float array;  (** the speed kernel's time after each job *)
    elapsed : float;
    alloc : float;  (** bytes the jobs allocated *)
    tally : tally;
    outs : (int * W.out) list;  (** newest first *)
    exns : int;
  }

  (* Repeat the set-up and keep the last one; setup_s is the median set-up
     time at the reference speed, each scaled by the median of five kernel
     samples taken right after it. *)
  let setups opts =
    let reps = match opts.size with Full -> 5 | Tiny -> 2 in
    let wall = Array.make reps 0.0 and scaled = Array.make reps 0.0 in
    let st = ref None in
    for i = 0 to reps - 1 do
      let t0 = now () in
      st := Some (W.setup opts.size ~seed:opts.seed);
      wall.(i) <- now () -. t0;
      let kernel_s = median (Array.init 5 (fun _ -> Speed.sample ())) in
      scaled.(i) <- Speed.scale ~kernel_s wall.(i)
    done;
    (median scaled, median wall, reps, Option.get !st)

  (* The kernel time around job [i]: the median of the samples after jobs
     i-2 .. i+2, which shrugs off a sample an interrupt lengthened. *)
  let local_kernel kernel_s i =
    let n = Array.length kernel_s in
    let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
    median (Array.sub kernel_s lo (hi - lo + 1))

  (* The closed loop: one job at a time, cycling through the pool, until
     [budget] seconds have passed.  [whole_passes] keeps going to the end
     of the current pass; [after_first_pass] fires when the first pass
     completes. *)
  let timed ?(whole_passes = false) ?(after_first_pass = ignore) opts st ~budget =
    let pool = W.pool st in
    let durations = ref [] and outs = ref [] and exns = ref 0 and tally = ref no_tally in
    let kernel_s = ref [] and alloc = ref 0.0 in
    let i = ref 0 in
    Gc.compact ();
    let t_start = now () in
    let more () =
      (whole_passes && !i mod pool <> 0) || now () -. t_start < budget
    in
    while !i = 0 || more () do
      let k = !i mod pool in
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      (* Each job ends by collecting its own young garbage, so no job pays
         for the one before it or for the speed kernel. *)
      let job () =
        let o = W.job st k in
        Gc.minor ();
        o
      in
      (match Spans.span "job" job with
      | o ->
          durations := (now () -. t0) :: !durations;
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          kernel_s := Speed.sample () :: !kernel_s;
          let o = if opts.corrupt && !i = 0 then W.corrupt o else o in
          tally := add_tally !tally (W.tally o);
          outs := (k, if !i < pool then o else W.light o) :: !outs
      | exception _ -> incr exns);
      incr i;
      if !i = pool then after_first_pass ()
    done;
    let elapsed = now () -. t_start in
    let durations = Array.of_list !durations and kernel_s = Array.of_list !kernel_s in
    {
      durations;
      scaled =
        Array.mapi
          (fun i d -> Speed.scale ~kernel_s:(local_kernel kernel_s i) d)
          durations;
      kernel_s;
      elapsed;
      alloc = !alloc;
      tally = !tally;
      outs = !outs;
      exns = !exns;
    }

  (* Correctness, outside every timed region: each job output is checked,
     and the deterministic outcomes use the first output of each pool
     entry (running any entry the timed loops never reached). *)
  let check st phases =
    let firsts = Array.make (W.pool st) None in
    List.iter
      (fun p -> List.iter (fun (k, o) -> firsts.(k) <- Some o) p.outs)
      (List.rev phases);
    let firsts =
      Array.mapi (fun k o -> match o with Some o -> o | None -> W.job st k) firsts
    in
    let attempted = ref 0 and failed = ref 0 in
    List.iter
      (fun p ->
        attempted := !attempted + p.exns;
        failed := !failed + p.exns;
        List.iter
          (fun (k, o) ->
            incr attempted;
            if not (try W.check st k o with _ -> false) then incr failed)
          p.outs)
      phases;
    let measured = W.outcomes st firsts in
    let outcomes =
      List.map
        (fun (name, unit_) ->
          match List.assoc_opt name measured with
          | Some v -> metric name v unit_ ~note:(W.name ^ ", one pass of the pool")
          | None -> metric name 0.0 unit_ ~note:"not measured by this workload")
        outcome_units
    in
    (!attempted, !failed, outcomes)

  let jobs p = Array.length p.durations
  let sum = Array.fold_left ( +. ) 0.0
  let p50_ms p = 1e3 *. percentile 50.0 p.scaled

  (* Timings at the reference speed; the wall-clock figures go to [wall]. *)
  let end_to_end ~setup_s ~setup_reps p =
    let n = jobs p in
    let samples = Printf.sprintf "n=%d" n in
    [
      metric "setup_s" setup_s "s" ~note:(Printf.sprintf "median of %d set-ups" setup_reps);
      metric "jobs_per_s" (float_of_int n /. sum p.scaled) "1/s"
        ~note:(Printf.sprintf "%d jobs" n);
      metric "job_ms_p50" (p50_ms p) "ms" ~note:samples;
      metric "job_ms_p90" (1e3 *. percentile 90.0 p.scaled) "ms" ~note:samples;
      metric "alloc_mb_per_job" (p.alloc /. float_of_int (max 1 n) /. 1e6) "MB";
    ]

  let wall ~setup_wall p =
    let n = jobs p in
    let kernel_ms = 1e3 *. median p.kernel_s in
    [
      metric "wall.setup_s" setup_wall "s";
      metric "wall.jobs_per_s" (float_of_int n /. sum p.durations) "1/s"
        ~note:(Printf.sprintf "%d jobs in %.2f s, speed kernel included" n p.elapsed);
      metric "wall.job_ms_p50" (1e3 *. percentile 50.0 p.durations) "ms";
      metric "wall.job_ms_p90" (1e3 *. percentile 90.0 p.durations) "ms";
      metric "speed.kernel_ms" kernel_ms "ms"
        ~note:(Printf.sprintf "median; %.3g ms at the reference speed" (1e3 *. Speed.reference_s));
    ]

  let sim_items_per_s p = float_of_int p.tally.items /. sum p.scaled

  (* Per-layer metrics of the traced phase.  [.ms] is self time per job;
     counts are per job over the first pass (deterministic in the seed);
     rates divide time by work over the whole traced phase. *)
  let per_layer ~setup_self ~first ~last ~untraced ~outcomes st (p : phase) =
    let jobs_f = float_of_int (max 1 (jobs p)) in
    let pool = float_of_int (W.pool st) in
    let count snap name = float_of_int (Obs.Registry.counter snap name) in
    let per_job name = metric name (count first name /. pool) "count" in
    let self_ms name = metric (name ^ ".ms") (1e3 *. Spans.self_seconds name /. jobs_f) "ms" in
    let program_ms name =
      let total =
        match Obs.Registry.span_stats last name with
        | Some s -> s.Obs.Registry.total
        | None -> 0.0
      in
      metric ("prog." ^ name ^ ".ms") (1e3 *. total /. jobs_f) "ms"
    in
    let hit_ratio hits misses name =
      let h = count first hits in
      metric name (ratio h (h +. count first misses)) "ratio"
    in
    let probes = count first "core.placement_probes"
    and prunes = count first "core.probe_prunes" in
    let events = count last "sim.events_popped" in
    let engine_s =
      match Obs.Registry.span_stats last "sim.engine.run" with
      | Some s -> s.Obs.Registry.total
      | None -> 0.0
    in
    let defeat_cuts =
      match Obs.Registry.histogram first "rel.defeat_cuts" with
      | Some h -> ratio h.Obs.Registry.sum (float_of_int h.Obs.Registry.count)
      | None -> 0.0
    in
    let restored =
      List.fold_left
        (fun acc l -> acc +. count first ("ops.recovery.restored." ^ l))
        0.0
        [ "full"; "relaxed"; "reduced_eps"; "best_effort" ]
    in
    let job_ms = 1e3 *. Array.fold_left ( +. ) 0.0 p.durations /. jobs_f in
    [
      self_ms "workload.generate";
      metric "workload.instances" (float_of_int p.tally.instances /. jobs_f) "count";
      self_ms "core.ltf";
      self_ms "core.rltf";
      self_ms "core.ff";
      per_job "core.placement_probes";
      per_job "core.probe_prunes";
      per_job "core.commits";
      per_job "core.chunks";
      per_job "core.feasibility_rejections";
      metric "core.schedule_errors" (float_of_int p.tally.errors /. jobs_f) "count";
      metric "core.commit_ratio" (ratio (count first "core.commits") probes) "ratio";
      metric "core.prune_ratio" (ratio prunes (probes +. prunes)) "ratio";
      per_job "sched.loads.incremental_updates";
      per_job "sched.loads.full_recomputes";
      hit_ratio "sched.loads.max_cache_hits" "sched.loads.max_cache_misses"
        "sched.loads.max_cache_hit_ratio";
      per_job "sched.timeline.trial_packs";
      per_job "sched.timeline.compactions";
      self_ms "sim.compile";
      per_job "sim.compiles";
      hit_ratio "sim.cache.hits" "sim.cache.misses" "sim.cache.hit_ratio";
      self_ms "sim.simulate";
      per_job "sim.runs";
      per_job "sim.events_popped";
      metric "sim.events_per_item" (ratio events (float_of_int p.tally.items)) "count";
      metric "sim.ns_per_event" (1e9 *. ratio engine_s events) "ns";
      metric "sim.alloc_mb" (Spans.self_bytes "sim.simulate" /. jobs_f /. 1e6) "MB";
      hit_ratio "sim.arena.reuses" "sim.arena.creates" "sim.arena.reuse_ratio";
      per_job "sim.retries";
      per_job "sim.faults.transient";
      per_job "sim.faults.exhausted";
      per_job "sim.queue.blocked";
      per_job "sim.drops";
      self_ms "sim.crash.estimate";
      per_job "sim.crash.draws";
      per_job "sim.crash.defeats";
      metric "sim.crash.us_per_draw"
        (1e6 *. ratio (Spans.self_seconds "sim.crash.estimate") (count last "sim.crash.draws"))
        "us";
      self_ms "sim.stage";
      self_ms "traffic.times";
      metric "traffic.arrivals" (float_of_int p.tally.arrivals /. jobs_f) "count";
      self_ms "rel.analyze";
      self_ms "rel.eval";
      per_job "rel.analyses";
      metric "rel.defeat_cuts" defeat_cuts "count";
      self_ms "ops.run";
      per_job "ops.recovery.epochs";
      per_job "ops.recovery.crashes";
      per_job "ops.recovery.attempts";
      metric "ops.recovery.restored_ratio"
        (ratio restored (count first "ops.recovery.attempts"))
        "ratio";
      per_job "ops.recovery.items_lost";
      program_ms "core.ltf.run";
      program_ms "core.rltf.run";
      program_ms "sim.engine.run";
      self_ms "exp.stats";
      metric "job.ms" job_ms "ms";
      metric "job.unattributed.ms" (1e3 *. Spans.self_seconds "job" /. jobs_f) "ms";
      metric "trace.overhead.ms" (p50_ms p -. p50_ms untraced) "ms";
    ]
    @ List.map
        (fun name -> metric ("setup." ^ name ^ ".ms") (1e3 *. setup_self name) "ms")
        layer_spans
    @ metric "setup.unattributed.ms" (1e3 *. setup_self "setup") "ms"
      :: metric "e2e.sim_items_per_s" (sim_items_per_s untraced) "1/s"
      :: List.map (fun o -> { o with mname = "e2e." ^ o.mname }) outcomes

  let untraced opts =
    let setup_s, setup_wall, setup_reps, st = setups opts in
    let p = timed opts st ~budget:opts.seconds in
    let t_check = now () in
    let attempted, failed, outcomes = check st [ p ] in
    let error_rate = ratio (float_of_int failed) (float_of_int attempted) in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics = end_to_end ~setup_s ~setup_reps p;
      extra =
        metric "error_rate" error_rate "ratio"
          ~note:(Printf.sprintf "failed=%d attempted=%d" failed attempted)
        :: metric "sim_items_per_s" (sim_items_per_s p) "1/s"
             ~note:(Printf.sprintf "%d items" p.tally.items)
        :: metric "check_s" (now () -. t_check) "s" ~note:"correctness checks, untimed"
        :: (outcomes @ wall ~setup_wall p);
    }

  (* Half the budget untraced, then a traced set-up and whole traced
     passes over the pool for the other half. *)
  let traced opts =
    let _, _, _, st = setups opts in
    let budget = opts.seconds /. 2.0 in
    let plain = timed opts st ~budget in
    Obs.reset ();
    Spans.reset ();
    Obs.set_enabled true;
    Spans.on := true;
    let st = Spans.span "setup" (fun () -> W.setup opts.size ~seed:opts.seed) in
    let setup_times =
      List.map (fun n -> (n, Spans.self_seconds n)) (layer_spans @ [ "setup" ])
    in
    Obs.reset ();
    Spans.reset ();
    let first = ref None in
    let p =
      timed ~whole_passes:true
        ~after_first_pass:(fun () -> first := Some (Obs.snapshot ()))
        opts st ~budget
    in
    let last = Obs.snapshot () in
    Spans.on := false;
    Obs.set_enabled false;
    let attempted, failed, outcomes = check st [ plain; p ] in
    let setup_self n = List.assoc n setup_times in
    let first = Option.value !first ~default:last in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        per_layer ~setup_self ~first ~last ~untraced:plain ~outcomes st p;
      extra =
        [
          metric "job_ms_p50.untraced" (p50_ms plain) "ms"
            ~note:(Printf.sprintf "n=%d" (jobs plain));
          metric "job_ms_p50.traced" (p50_ms p) "ms" ~note:(Printf.sprintf "n=%d" (jobs p));
        ];
    }

  let run opts = if opts.trace then traced opts else untraced opts
end

(* ---- output ----------------------------------------------------------- *)

let workloads : (string * (opts -> result)) list =
  let module P = Runner (Paper_sweep) in
  let module O = Runner (Open_stream) in
  let module C = Runner (Crash_recovery) in
  [ (Paper_sweep.name, P.run); (Open_stream.name, O.run); (Crash_recovery.name, C.run) ]

let json_of_result r =
  let num v = Obs.Json.Num (if Float.is_finite v then v else 0.0) in
  Obs.Json.(
    to_string
      (Obj
         [
           ("correct", Bool r.correct);
           ("attempted", Num (float_of_int r.attempted));
           ("failed", Num (float_of_int r.failed));
           ( "metrics",
             Obj
               (List.map
                  (fun mt -> (mt.mname, Obj [ ("value", num mt.value); ("unit", Str mt.unit_) ]))
                  r.metrics) );
         ]))

let print_metric mt =
  Printf.printf "  %-36s %14.6g %-6s %s\n" mt.mname mt.value mt.unit_
    (if mt.note = "" then "" else "(" ^ mt.note ^ ")")

(* The share of the traced job time each layer's self time accounts for. *)
let print_coverage r =
  let find n = List.find_opt (fun mt -> mt.mname = n) r.metrics in
  match find "job.ms" with
  | Some job when job.value > 0.0 ->
      Printf.printf "  self-time share of the traced job (%.4g ms):\n" job.value;
      List.iter
        (fun n ->
          match find (n ^ ".ms") with
          | Some mt when mt.value > 0.0 ->
              Printf.printf "    %-28s %6.2f%%\n" n (100.0 *. mt.value /. job.value)
          | _ -> ())
        (layer_spans @ [ "job.unattributed" ])
  | _ -> ()

let run_one opts run =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d size=%s nproc=%d ocaml=%s commit=%s\n%!"
    opts.workload opts.seed opts.seconds
    (if opts.trace then 1 else 0)
    (match opts.size with Full -> "full" | Tiny -> "tiny")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version opts.commit;
  let r = run opts in
  List.iter print_metric (r.metrics @ r.extra);
  if opts.trace then print_coverage r;
  if not r.correct then
    Printf.eprintf "perfbench: %s: %d of %d operations failed their checks\n%!"
      opts.workload r.failed r.attempted;
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and corrupt = ref false and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       " paper-sweep | open-stream | crash-recovery | all");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " timed budget per run (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--size", Arg.Set_string size, " full (default) | tiny");
      ("--corrupt", Arg.Set corrupt, " corrupt one job output (checks must catch it)");
      ("--commit", Arg.Set_string commit, " commit id recorded in the header");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let size =
    match !size with "full" -> Full | "tiny" -> Tiny | s -> fail ("unknown size " ^ s)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let opts w =
    {
      workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      size;
      corrupt = !corrupt;
      commit = !commit;
    }
  in
  match !workload with
  | "all" ->
      (* Every workload in one command; the last line namespaces each
         workload's metrics. *)
      let results = List.map (fun (w, run) -> (w, run_one (opts w) run)) workloads in
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
      print_endline
        (json_of_result
           {
             correct = List.for_all (fun (_, r) -> r.correct) results;
             attempted = sum (fun r -> r.attempted);
             failed = sum (fun r -> r.failed);
             metrics =
               List.concat_map
                 (fun (w, r) -> List.map (fun mt -> { mt with mname = w ^ "." ^ mt.mname }) r.metrics)
                 results;
             extra = [];
           })
  | w -> (
      match List.assoc_opt w workloads with
      | None -> fail ("unknown workload " ^ w)
      | Some run -> print_endline (json_of_result (run_one (opts w) run)))
