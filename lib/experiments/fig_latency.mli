(** Figures 3 (ε = 1, c = 1) and 4 (ε = 3, c = 2): one sample pass charts
    all three panels against granularity.

    - (a) average normalized latency with 0 crashes against the
      (2S−1)/T upper bound;
    - (b) average normalized latency with 0 and with [c] crashes;
    - (c) the fault-tolerance overhead
      [(L_algo − L_FF) / L_FF × 100] against the fault-free reference
      schedule (R-LTF without replication, ε = 0, on the same graph and
      platform), with 0 and with [c] crashes, and the share of crashes
      that defeated the mapping. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:Fig_common.config -> unit -> unit
(** Collect the samples once ([jobs] worker domains, default 1 =
    sequential; the output is identical for every value) and chart each
    panel with {!Fig_common.chart} under [out_dir] (default "results"):
    [fig-latency-bounds-epsE.csv], [fig-latency-crashC-epsE.csv],
    [fig-overhead-epsE.csv] and [fig-overhead-defeats-epsE.csv].  With
    [config.exact] the crash columns come from the {!Reliability}
    calculus and the three crash-dependent files gain an [-exact]
    suffix, so the sampled artifacts never change; the bounds file is
    the same in both modes. *)
