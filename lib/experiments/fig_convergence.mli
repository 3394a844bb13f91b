(** Extension J: Monte-Carlo / exact cross-validation.

    The {!Reliability} calculus and the crash sampler measure the same
    two quantities — the defeat probability and the mean degraded
    latency — for a schedule under [c] uniform crashes.  This experiment
    schedules R-LTF on random paper-workload instances, computes both
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
  crashes : int;  (** c, simultaneous fail-stop processors *)
  eps : int;  (** replication degree for R-LTF *)
  draw_counts : int list;  (** MC sample sizes to sweep *)
  spec : Spec.t;
}

val default : config
(** 12 graphs, c = 2, ε = 1, draws 10 … 1000 on the paper workload. *)

val quick : config
(** 4 graphs, draws 10/40/160 — the smoke-run and CI-gate variant. *)

(** Per-graph gaps, one entry per draw count: [defeat_errors] is
    |MC defeat rate − exact defeat probability|; [latency_errors] is the
    relative error of the mean degraded latency (absent when either side
    could not measure it). *)
type rep_errors = {
  defeat_errors : (int * float) list;
  latency_errors : (int * float) list;
}

val collect : ?jobs:int -> config -> rep_errors list
(** All reps that scheduled, in rep order; deterministic in the seed for
    every [jobs] value. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:config -> unit ->
  Ascii_plot.series list
(** Prints the error-vs-draws plot and table and writes
    [fig-convergence.csv]. *)

val check : ?tolerance:float -> ?jobs:int -> config -> (unit, string) result
(** The CI cross-check: fails when the mean defeat-probability gap at
    the largest draw count exceeds [tolerance] (default 0.05), when it
    is NaN, or when the gap grew by more than [tolerance] along the
    sweep.  Deterministic in [config.seed]. *)
