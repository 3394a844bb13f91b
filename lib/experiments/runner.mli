(** Registry of the reproducible experiments, used by
    [bin/experiments.exe] and the integration tests. *)

type experiment = {
  name : string;        (** CLI name, e.g. "fig3" *)
  description : string;
  run :
    workload:Spec.t option ->
    quick:bool ->
    seed:int ->
    jobs:int ->
    exact:bool ->
    out_dir:string ->
    unit;
      (** [workload] replaces the {!Spec} of the experiments that sweep
          a {!Fig_common.config}; the others run their fixed workload
          and ignore it.  [quick] shrinks the
          per-point replication for smoke runs; [jobs] is the
          worker-domain count for the sample sweeps (1 = sequential; the
          output never depends on it); [exact] switches the crash
          columns of fig3/fig4 to the {!Reliability} calculus and adds
          the analytic survival curve to "recovery" (experiments without
          an exact mode ignore it) *)
}

val all : experiment list
(** fig3 fig4 examples baselines complexity symmetric ablation pipeline
    optgap families topology cost recovery traffic faults convergence
    scaling latency — in that order.  ["fig3"] and ["fig4"] each chart
    all three panels of their paper figure from one sample pass.  Every
    experiment runs under an [exp.fig.<name>] span when {!Obs.enabled}
    is on; ["latency"] combines the sampled fig3 pass with an
    event-driven replay of other graphs so one profiling run exercises
    the scheduler, the simulator and the sweep machinery together, and
    ["convergence"] cross-validates the crash sampler against the exact
    calculus. *)

val find : string -> experiment option

val names : string list
