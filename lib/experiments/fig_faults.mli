(** Extension M: fault injection — transient retry/backoff, gray
    stragglers, correlated failure domains, and escalation to eviction.

    Four parts over the same R-LTF schedules (ε = 1, on 30–60-task
    paper-workload graphs over 12 processors):

    - {b A} sweeps the per-attempt transient fault rate against the retry
      budget on a closed stream; retries are re-driven after a truncated
      exponential backoff (base 0.25 × period, ×2) and charged against
      the one-port model, so mean latency climbs with the fault rate at
      every fixed budget while delivery improves with the budget.
    - {b B} stretches the busiest processor by a gray straggler factor;
      latency degrades smoothly with no crash and no item lost (factor
      1.0 runs the instrumented path and matches the fault-free run).
    - {b C} sweeps the correlation strength ρ of rack-level common
      shocks at a fixed per-processor marginal of 0.08: the exact
      Marshall–Olkin defeat probability ({!Reliability.Correlated}),
      a Monte-Carlo estimate over the same model, and the independent
      model of equal marginals as baseline.
    - {b D} runs the operations layer with a processor stuck in a
      permanent exec-fault window until the exhaustion ledger evicts it
      through the normal recovery chain.

    Each graph's R-LTF mapping is scheduled once ({!Fig_common.rep_pass})
    and serves all four parts; D drills the first graph's.  Equal seeds
    give bit-identical CSVs at any [jobs] (the fault draws hash a
    per-trial seed and the MC draws come from the trial's own stream, so
    every axis moves because of its knob — common random numbers). *)

type config = {
  seed : int;
  reps : int;  (** random graphs per sweep point *)
  fault_rates : float list;  (** per-attempt transient fault probability *)
  retry_budgets : int list;  (** max_retries values of the A sweep *)
  straggler_factors : float list;  (** gray slowdown factors of the B sweep *)
  rhos : float list;  (** correlation strengths of the C sweep *)
  mc_draws : int;  (** Monte-Carlo draws per C point *)
  n_items : int;  (** items simulated per A/B run *)
}

val default : config
(** Rates 0 → 0.2, budgets 0/1/3/5, factors 1 → 4, ρ 0 → 1 over racks of
    3, 60 items, 4 graphs per point, 2000 MC draws. *)

val quick : config
(** Three rates, two budgets, two factors, three ρ, 24 items, 2 graphs,
    400 MC draws — the CI profile. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:config -> unit -> unit
(** Run the four parts; charts ({!Fig_common.chart}) parts A–C into
    [fig-faults-retry-{latency,delivered,count}.csv],
    [fig-faults-gray.csv] and [fig-faults-correlated.csv] under
    [out_dir], and prints the eviction-drill summary. *)
