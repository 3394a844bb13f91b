(** Shared data collection for the §5 figures.

    One pass over (granularity × random graph) collects everything Figures
    3 and 4 need — latency upper bounds, simulated 0-crash latencies,
    simulated latencies under [c] random crashes, and the fault-free
    reference latency — so each figure is an aggregation of the same
    sample set, exactly as in the paper.

    With {!Obs.enabled} on, every trial records an [exp.trial] span and an
    [exp.trials] counter (plus whatever the algorithms and the simulator
    record underneath); the instrumentation never changes the samples. *)

type config = {
  seed : int;
  graphs_per_point : int;  (** the paper uses 60 *)
  eps : int;
  crashes : int;           (** c, the number of failed processors *)
  crash_draws : int;       (** crash samples averaged per graph *)
  exact : bool;
      (** replace the [crash_draws] Monte-Carlo estimates with the
          {!Reliability} calculus: the [crash] and [defeat_rate] columns
          become exact expectations over all [choose (m, c)] failure sets
          and consume no randomness.  Default [false] — the sampled
          outputs stay byte-identical. *)
  spec : Spec.t;
  sched : Scheduler.options;  (** options for LTF/R-LTF and the reference *)
  granularities : float list;
}

val default : eps:int -> crashes:int -> config
(** Paper parameters: 60 graphs/point, 3 crash draws, best-effort mode,
    granularities 0.2 … 2.0. *)

val quick : eps:int -> crashes:int -> config
(** A fast variant (8 graphs/point) for tests and smoke runs. *)

(** One point of the sweep: a trial is a {e pure} function of this record
    — its whole RNG stream is derived from {!trial_seed} — which is what
    makes the parallel [collect] bit-identical to the sequential one. *)
type trial = {
  config : config;
  granularity : float;
  rep : int;  (** graph index within the point, [0 .. graphs_per_point-1] *)
}

val trial_seed : trial -> int
(** The per-trial root seed, derived from [config.seed], the granularity
    and the rep index. *)

(** What one algorithm measured on one instance; [nan] marks a quantity
    that could not be measured (scheduling failure, lost exit task). *)
type trial_result = {
  bound : float;   (** (2S−1)/T for the mapping *)
  sim : float;     (** simulated 0-crash latency *)
  crash : float;   (** mean simulated latency under [crashes] failures *)
  defeat_rate : float;
      (** fraction of crash draws that defeated the mapping (an exit task
          lost all replicas); [nan] when [crashes = 0] *)
  meets : bool;    (** the mapping satisfies the desired throughput *)
}

val no_result : trial_result
(** All-[nan] (and [meets = false]): the algorithm failed to schedule. *)

(** Everything measured on one random graph at one granularity. *)
type sample = {
  granularity : float;
  ltf : trial_result;
  rltf : trial_result;
  ff_sim : float;  (** fault-free (ε = 0 R-LTF) simulated latency *)
}

(** Named accessors, shaped for {!mean_series} / {!Stats.mean_by} — figure
    modules compose these instead of destructuring the records. *)

val ltf_bound : sample -> float
val ltf_sim : sample -> float
val ltf_crash : sample -> float
val rltf_bound : sample -> float
val rltf_sim : sample -> float
val rltf_crash : sample -> float
val ltf_defeat_rate : sample -> float
val rltf_defeat_rate : sample -> float
val ff_sim : sample -> float

val measure_algo :
  config ->
  throughput:float ->
  rng:Rng.t ->
  (Mapping.t, 'e) result ->
  trial_result
(** Measurements for one algorithm's outcome.  All crash draws come from
    [rng] and nothing else, so independent streams give independent
    measurements (exposed for the regression tests). *)

val run_trial : trial -> sample
(** Generate the trial's instance and measure LTF, R-LTF and the
    fault-free reference on it. *)

val collect : ?jobs:int -> config -> sample list
(** Samples in (granularity, graph index) order; deterministic in
    [config.seed].  [jobs] (default 1) is the number of worker domains:
    [jobs = 1] runs sequentially without spawning any domain, and every
    value of [jobs] yields byte-for-byte identical output. *)

val by_granularity : sample list -> (float * sample list) list
(** Group in increasing granularity. *)

val mean_series :
  label:string -> (sample -> float) -> sample list -> Ascii_plot.series
(** Per-granularity mean of the (non-NaN) projection. *)

(** {2 The extension sweeps}

    The traffic, recovery and fault sweeps ([Fig_traffic], [Fig_recovery],
    [Fig_faults]) run on one {!rep_pass}: each contender is scheduled
    once on each rep's reduced-scale instance, and every point of the
    sweep measures that one mapping. *)

(** An algorithm entered in an extension sweep, scheduled best-effort at
    its own replication degree. *)
type contender = {
  label : string;  (** the series label *)
  algo_eps : int;  (** ε the contender is scheduled with *)
  algo : (module Scheduler.Algo);
}

val contender : eps:int -> (module Scheduler.Algo) -> contender
(** A replicating contender labelled ["NAME (eps=ε)"]. *)

val contenders : eps:int -> contender list
(** R-LTF and LTF at [eps], then the single-copy baselines HEFT and
    Hary-Özgüner at ε = 0, in that (series) order. *)

val reduced_spec : Spec.t
(** The extension sweeps' workload: paper-style graphs of 30–60 tasks on
    12 processors.  A timeline replays many items through the event
    engine, so a trial's cost is its horizon, not the graph size. *)

val rep_instance :
  Spec.t -> seed:int -> rep:int -> Rng.t * Paper_workload.instance
(** The rep's root stream, seeded [seed + 7919 · rep], and the instance
    generated from it at granularity 1.0.  The seed ignores the sweep's x
    value, so every point of a sweep sees the same graphs (common random
    numbers). *)

val schedule : contender -> Paper_workload.instance -> (Mapping.t * float) option
(** The contender's best-effort mapping and the paper's throughput
    [1 / (10 (ε+1))] it was scheduled for; [None] when scheduling
    failed. *)

val service_period : Mapping.t -> throughput:float -> float
(** The achieved service interval [max (1/T) (period)]: the unit the
    sweeps' loads, horizons and delays are expressed in. *)

val rep_pass :
  jobs:int ->
  seed:int ->
  reps:int ->
  contender list ->
  (rep:int -> rng:Rng.t -> Mapping.t -> throughput:float -> 'm) ->
  (string * 'm option) list list
(** One entry per rep, in rep order, run on [jobs] worker domains
    (identical output for every value).  A rep takes its {!rep_instance}
    of {!reduced_spec}, splits one child of its stream per contender (in
    list order, before any scheduling), {!schedule}s each contender once
    and measures the mapping with the contender's child stream.  Each
    entry pairs a contender's label with its measurement, [None] where
    scheduling failed. *)

type 'p sweep
(** Every contender's measurements at every x of every rep. *)

val sweep :
  jobs:int ->
  seed:int ->
  eps:int ->
  xs:float list ->
  reps:int ->
  (Mapping.t -> throughput:float -> float -> rng:Rng.t -> 'p) ->
  'p sweep
(** The {!rep_pass} of {!contenders}[ ~eps]: a trial is one rep, and
    each contender's mapping is measured at every x inside it.  The
    measure is staged — [measure mapping ~throughput] runs once per
    (rep, contender), and the function it returns once per x — and each
    x gets an {!Rng.copy} of the contender's child stream, so every x
    sees the same draws (common random numbers). *)

val series_by : 'p sweep -> (string * ('p -> float)) list -> Ascii_plot.series list
(** Per contender, one series per [(suffix, projection)]: at each [x],
    the mean projection over the reps of the contender's point at [x]
    (reps that failed to schedule and NaN projections skipped).  A series
    is labelled ["LABEL SUFFIX"], or ["LABEL"] when the suffix is
    empty. *)

val per_label : 'k -> ('k * 'a) list list -> 'a list
(** The measurements keyed [key] in per-rep lists, in {e reverse} rep
    order: the order the table figures' means have always summed in, so
    their float sums (and CSVs) stay fixed. *)

(** {2 The table figures' graph pass}

    A table figure measures random graphs and reports, per row key, means
    and counts over the graphs.  {!graph_pass} measures every graph once;
    a row is a key and its samples, and the {!mean} and {!hits} columns
    read it. *)

val graph_pass :
  jobs:int -> graphs:int -> 'k list -> (int -> ('k * 's) list) -> ('k * 's list) list
(** [graph_pass ~jobs ~graphs keys measure] runs [measure rep] for every
    rep in [0 .. graphs-1] on [jobs] worker domains (identical output for
    every value) and returns one row per key, in [keys] order: the key
    and, by {!per_label}, the samples [measure] paired with it — possibly
    none. *)

val measured : ('s -> float) list -> ('k * 's list) list -> ('k * 's list) list
(** The rows where every projection has at least one non-NaN sample. *)

(** {2 Tables}

    A table figure declares each column once; {!table} renders the same
    rows on the terminal and in the CSV. *)

type 'r column = {
  head : string;  (** the terminal header *)
  key : string;  (** the CSV header *)
  show : 'r -> string;  (** the terminal cell *)
  csv : 'r -> string;  (** the CSV cell *)
}

val text : string -> ('r -> string) -> 'r column
(** The same header and cell on both sides. *)

val num :
  string ->
  string ->
  (float -> string, unit, string) format ->
  (float -> string, unit, string) format ->
  ('r -> float) ->
  'r column
(** [num head key show_fmt csv_fmt proj]: a float, usually shown with
    fewer digits than the file keeps. *)

val count : string -> string -> total:int -> ('r -> int) -> 'r column
(** ["n/total"] on the terminal, ["n"] in the file. *)

val mean :
  string ->
  string ->
  (float -> string, unit, string) format ->
  (float -> string, unit, string) format ->
  ('s -> float) ->
  ('k * 's list) column
(** A {!num} of the row's {!Stats.mean_by}: NaN samples are skipped, and
    a row with none left shows [nan]. *)

val hits : string -> string -> total:int -> ('s -> bool) -> ('k * 's list) column
(** A {!count} of the row's samples that satisfy the predicate. *)

val table : path:string -> 'r column list -> 'r list -> unit
(** Print the table, then write the CSV to [path]. *)

(** {2 Series charts}

    A series figure charts mean series against one x axis; {!chart} is
    its one writer. *)

type heading =
  | Plot of { title : string; x_label : string; y_label : string }
      (** an ASCII plot of the series *)
  | Line of string  (** one line of text instead of a plot *)

val chart :
  path:string -> x_header:string -> heading -> Ascii_plot.series list -> unit
(** Print the heading, then a {!table} of one row per x value of the
    first series: an x column headed [x_header] (x shown with [%g]) and
    one column per series (values [%.1f], a missing or NaN value shown
    as ["-"]).  Then write the same rows to the CSV at [path], under the
    same headers (values [%.6g], missing or NaN as an empty cell). *)
