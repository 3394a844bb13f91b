(** Extension K: open-system traffic — tail latency, queue occupancy and
    drop rate versus offered load and burstiness.

    For each sweep point the schedule of every algorithm is driven by an
    open arrival process (Poisson, and an MMPP with 1.8×/0.2× burst/idle
    phases at the same mean rate) whose rate is [load / period].  Each
    (algorithm, graph, load) point runs twice over the {e same}
    materialized arrival trace: an unbounded backpressure run measuring
    the sojourn percentiles (p50/p99) and peak queue, and a
    [Drop_newest] run with a queue bound of 4 per replica measuring the
    shed fraction.  LTF and R-LTF replicate with ε = 1, on 30–60-task
    graphs over 12 processors.  Each algorithm is scheduled once per
    graph ({!Fig_common.sweep}), and every load and both profiles replay
    the same stream, so a sweep re-times the same quanta (common random
    numbers).  Equal seeds give bit-identical CSVs at any [jobs]. *)

type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  loads : float list;  (** offered load: mean arrival rate × period *)
  n_items : int;  (** arrivals simulated per run *)
}

val default : config
(** Loads 0.5 → 1.5, 300 items, 5 graphs per point. *)

val quick : config
(** Three loads, 80 items, 2 graphs per point — the CI profile. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:config -> unit -> unit
(** Measure both profiles in one sweep, then chart
    ({!Fig_common.chart}) the p50/p99 latency, peak queue and drop rate
    of the Poisson profile and then of the MMPP one, writing [fig-traffic-{latency,queue,drops}-{poisson,mmpp}.csv]
    under [out_dir]. *)
