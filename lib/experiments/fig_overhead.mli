(** Figures 3(c)/4(c): average fault-tolerance overhead (%) versus
    granularity.

    [Overhead = (L_algo − L_FF) / L_FF × 100] against the fault-free
    reference schedule (R-LTF without replication, ε = 0, on the same
    graph and platform), for LTF and R-LTF, each with 0 crashes and with
    [c] crashes. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:Fig_common.config -> unit ->
  Ascii_plot.series list
(** Prints the plot and table and writes [fig-overhead-epsE.csv];
    when [crashes > 0] also prints the defeat-rate table and writes it to
    the separate [fig-overhead-defeats-epsE.csv] (the overhead CSV itself
    is unchanged).  With [config.exact] the crash columns come from the
    {!Reliability} calculus and both files gain an [-exact] suffix, so
    the sampled artifacts never change.  [jobs] worker domains (default 1
    = sequential, identical output). *)
