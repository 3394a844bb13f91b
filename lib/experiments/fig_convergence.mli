(** Extension J: Monte-Carlo / exact cross-validation.

    The {!Reliability} calculus and the crash sampler measure the same
    two quantities — the defeat probability and the mean degraded
    latency — for a schedule under c = 2 uniform crashes.  This experiment
    schedules R-LTF (ε = 1) on random paper-workload instances, computes both
    sides, and charts the mean absolute gap |MC − exact| against the
    number of crash draws: the gap must shrink roughly as 1/√draws if
    the sampler and the calculus agree on the underlying distribution.

    Everything (instances, schedules, every crash draw) derives from the
    seed; the exact side consumes no randomness, so the sweep is fully
    deterministic and {!check} is a regression gate, not a statistical
    test. *)

type config = {
  seed : int;
  reps : int;  (** random graphs, each scheduled once *)
  draw_counts : int list;  (** MC sample sizes to sweep *)
}

val default : config
(** 12 graphs, draws 10 … 1000. *)

val quick : config
(** 4 graphs, draws 10/40/160 — the smoke-run and CI-gate variant. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:config -> unit ->
  Ascii_plot.series list
(** Prints the error-vs-draws plot and table and writes
    [fig-convergence.csv]. *)

val check : ?jobs:int -> config -> (unit, string) result
(** The CI cross-check: fails when the mean defeat-probability gap at
    the largest draw count exceeds 0.05, when it is NaN, or when the gap
    grew by more than 0.05 along the sweep.  Deterministic in
    [config.seed]. *)
