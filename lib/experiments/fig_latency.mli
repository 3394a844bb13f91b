(** Figures 3(a)/3(b) (ε = 1) and 4(a)/4(b) (ε = 3): average normalized
    latency versus granularity. *)

type mode =
  | Bounds      (** 0-crash simulated latency vs the (2S−1)/T upper bound *)
  | Crash       (** 0-crash vs c-crash simulated latency *)

val run :
  ?out_dir:string -> ?jobs:int -> config:Fig_common.config -> mode:mode ->
  unit -> unit
(** Collect samples ([jobs] worker domains, default 1 = sequential; the
    output is identical for every value) and chart them with
    {!Fig_common.chart}: the plot, the table, and
    [fig-latency-<bounds|crashN>-epsE.csv] under [out_dir] (default
    "results"). *)
