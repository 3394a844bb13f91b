(** One registry for every workload family.

    A {!t} names a complete recipe — graph family, sizes, platform,
    throughput law — and {!generate} turns it into a scheduling instance.
    Experiments should reach workloads through this module only: it
    holds the paper generator itself, and {!Huge.instance} is an
    implementation detail. *)

(** The recipe behind a spec.  Exposed so callers can resize
    programmatically ([{ p with tasks_range = … }]); prefer
    {!of_string} overrides where a string suffices. *)
type impl =
  | Paper of Paper_workload.spec
  | Classic_fig1
  | Classic_fig2 of int  (** processor count *)
  | Huge of Huge.spec

type t = {
  name : string;
  impl : impl;
}

val name : t -> string

val paper : ?name:string -> Paper_workload.spec -> t
(** Wrap a custom paper-style spec (named ["paper-custom"] by default). *)

val huge : Huge.spec -> t
(** Wrap a custom huge spec, named ["huge-custom"]. *)

val default : t
(** ["paper-layered"] — the paper's own §5 workload. *)

val all : t list
(** Every registered spec, in presentation order. *)

val find : string -> t option
(** Lookup by exact name in {!all}. *)

val of_string : string -> (t, string) result
(** Parse a spec string: a registry name with optional ':'-separated size
    overrides, e.g. ["huge:v=100000:m=200"].  Keys: [v] pins the task
    count, [m] the processor count. *)

val throughput : t -> eps:int -> float
(** The spec's target throughput for [ε] failures. *)

val generate :
  t -> rng:Rng.t -> ?granularity:float -> unit -> Paper_workload.instance
(** Draw one instance.  For families migrated behind this registry the
    RNG consumption is identical to the old direct constructors, so
    historical figures reproduce byte-for-byte. *)
