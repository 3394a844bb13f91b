(** Figures 3(a)/3(b) (ε = 1) and 4(a)/4(b) (ε = 3): average normalized
    latency versus granularity. *)

type mode =
  | Bounds      (** 0-crash simulated latency vs the (2S−1)/T upper bound *)
  | Crash       (** 0-crash vs c-crash simulated latency *)

val series : mode:mode -> Fig_common.sample list -> Ascii_plot.series list
(** The four curves of the figure, in the paper's legend order. *)

val run :
  ?out_dir:string -> ?jobs:int -> config:Fig_common.config -> mode:mode ->
  unit -> Ascii_plot.series list
(** Collect samples ([jobs] worker domains, default 1 = sequential; the
    output is identical for every value), print the plot and table, write
    [fig-latency-<bounds|crashN>-epsE.csv] under [out_dir] (default
    "results"), and return the series. *)

(** {1 Series rendering shared with the other figure drivers} *)

val table_of_series : Ascii_plot.series list -> unit
(** Print one row per x value, one column per series. *)

val csv_of_series : x_header:string -> string -> Ascii_plot.series list -> unit
(** Write the same layout as CSV to the given path, headed by [x_header]
    (the x axis) and then the series labels. *)
