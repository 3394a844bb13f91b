(** A small plain-text interchange format for workflows and platforms, so
    schedules can be driven from files (see [bin/schedviz.exe --file]).

    Workflow files are line-oriented; [#] starts a comment:

    {v
    workflow video-pipeline
    task decode  8.0         # name and execution weight
    task encode  9.0
    edge decode encode 4.0   # source, destination, data volume
    v}

    Platform files:

    {v
    platform edge-cluster
    proc server-0 4.0        # name and speed
    proc node-1  1.5
    link server-0 node-1 8.0 # bandwidth; unlisted pairs get the default
    default-bandwidth 2.0
    v}

    Parsers report the first error with its line number.  Printers emit
    files the parsers accept (round-trip is exact up to float formatting
    and comment loss). *)

type error = { line : int; message : string }

val error_to_string : error -> string

(** {1 Workflows} *)

val parse_workflow : string -> (Dag.t, error) result
(** Parse from file contents.  Task names must be unique; edges must refer
    to declared tasks; the graph must be acyclic. *)

val load_workflow : string -> (Dag.t, error) result
(** Read the file at the given path; I/O failures are reported on line 0. *)

val print_workflow : Dag.t -> string
val save_workflow : string -> Dag.t -> unit

(** {1 Platforms} *)

val parse_platform : string -> (Platform.t, error) result
val load_platform : string -> (Platform.t, error) result
val print_platform : Platform.t -> string
(** {1 Workload specs}

    Besides explicit workflow/platform files, a workload can be named by
    a registry spec string (see {!Spec.of_string}), so CLIs and
    experiment configs say ["huge:v=5000:m=50"] instead of wiring up a
    builder. *)

val instance_of_spec :
  seed:int -> string -> (Paper_workload.instance, error) result
(** Generate a full instance (graph and platform) from a spec string at
    granularity 1.0.  Deterministic in [seed]; parse errors are reported
    on line 0. *)
