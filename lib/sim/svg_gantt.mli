(** SVG Gantt charts of executed schedules — the publication-quality
    companion of {!Gantt}'s ASCII rendering (the OCaml ecosystem ships no
    plotting toolchain in this repository's dependency set, so figures are
    emitted directly as SVG). *)

val render : Mapping.t -> Engine.result -> string
(** A 960-pixel-wide SVG document of data item 0 with one row per
    processor: replica executions as filled boxes (one colour per task,
    labelled), transfers as thin boxes in a narrow sub-row. *)

val save : string -> Mapping.t -> Engine.result -> unit
