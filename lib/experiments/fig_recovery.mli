(** Extension I: operating schedules under live failures.

    The §5 figures measure a mapping on independent one-shot runs; this
    experiment {e operates} each mapping over a long horizon with
    {!Stream_ops}: exponential fail-stop arrivals, per-crash recovery
    through the {!Recovery_policy} degradation chain, downtime and item
    loss.  It sweeps the failure pressure and compares LTF and R-LTF
    (replicated, ε = 1) against two unreplicated §3
    baselines (HEFT and Hary-Özgüner), plotting availability (items
    delivered / items injected) and the mean degraded-mode latency.

    Knobs are denominated in {e items} (crashes per processor per 1000
    injected items, horizon and a 2-item reconfiguration delay) so every
    algorithm faces the same failure pressure per unit of delivered work
    even though their injection periods differ.  Each algorithm is
    scheduled once per graph ({!Fig_common.sweep}), and every hazard
    replays the same stream (common random numbers): each curve moves
    along the sweep because of the rate, not resampling noise. *)

type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  hazards : float list;  (** crashes per processor per 1000 items *)
  horizon_items : int;
  exact : bool;
      (** also compute the analytic no-recovery survival curve with the
          {!Reliability} calculus (default [false]); purely additive —
          the sampled artifacts never change *)
}

val default : config
(** 10 graphs/point, hazards 0.05 … 5, 200-item horizon, ε = 1, on a
    smaller workload than the figure sweeps (30–60 tasks, 12 processors)
    — an ops timeline replays hundreds of items per trial. *)

val quick : config
(** 3 graphs/point, 3 hazard points, 60-item horizon. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:config -> unit -> unit
(** Charts ({!Fig_common.chart}) the availability and degraded latency
    (plots and tables) and the outage rate (table), writing
    [fig-recovery-availability.csv], [fig-recovery-latency.csv] and
    [fig-recovery-outages.csv].  With [config.exact] it
    additionally charts the analytic no-recovery reference (the exact
    {!Reliability} probability that each static schedule is never
    defeated within the horizon, on the same mappings; the recovery
    timelines must sit above it) into
    [fig-recovery-exact-survival.csv].  [jobs] worker domains
    (default 1 = sequential, identical output for every value). *)
