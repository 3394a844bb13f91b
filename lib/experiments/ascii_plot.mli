(** Terminal line plots, one glyph per series — a stand-in for the paper's
    gnuplot figures so every experiment is inspectable without a plotting
    toolchain. *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y), NaN ys are skipped *)
}

val render :
  ?width:int -> ?height:int ->
  ?x_label:string -> ?y_label:string ->
  title:string -> series list -> string
(** A [width × height] character canvas (default 64 × 20) with axes
    labelled by the data ranges and a legend mapping glyphs to series.
    Series longer than 4096 points (far above anything a canvas
    resolves) are first cut to an evenly-strided subset that keeps both
    endpoints. *)

val print :
  ?x_label:string -> ?y_label:string -> title:string -> series list -> unit
(** [render] at the default canvas size, printed to stdout. *)
