(** Minimal CSV output for the regenerated figures (one file per figure,
    one column per series, gnuplot/spreadsheet-friendly). *)

val escape : string -> string
(** Quote a field if it contains commas, quotes or newlines. *)

val write : path:string -> header:string list -> string list list -> unit
(** Write a header row and data rows; creates parent directories. *)
