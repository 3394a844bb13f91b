(** Zero-dependency observability: monotonic counters, log-scale float
    histograms and nestable timed spans, collected into per-domain
    registries.

    Instrumented code calls the module-level probes ({!incr}, {!observe},
    {!with_span}); each probe writes to the calling domain's own registry,
    so concurrent workers (e.g. a [Domain_pool]) never contend and never
    race.  Probes are gated on a global {!enabled} flag (default [off]):
    when disabled they return immediately and record nothing, so the
    instrumented build behaves — and outputs — exactly like an
    uninstrumented one.  Instrumentation is purely observational either
    way: enabling it never changes results, only records them.

    Worker domains fold their registry into a shared parent accumulator
    with {!publish} (the repo's [Domain_pool] does this automatically when
    a worker exits); the main domain then reads the union of everything
    recorded so far with {!snapshot}. *)

val enabled : unit -> bool
(** Whether probes record anything.  Off by default. *)

val set_enabled : bool -> unit
(** Toggle recording, for every domain at once (the flag is shared). *)

(** A tiny JSON tree, enough to export and re-read metric dumps without
    depending on an external JSON library. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering.  Integral numbers print without a decimal point;
      other floats print with enough digits to round-trip. *)

  val parse : string -> (t, string) result
  (** Parse a complete JSON document ([Error] carries a position-annotated
      message).  Supports the standard escapes; [\uXXXX] below 0x80 is
      decoded, higher code points are replaced by ['?']. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on other constructors. *)
end

(** A mutable bag of named metrics.  Not thread-safe by itself — the
    point of the per-domain design is that each registry has a single
    writer. *)
module Registry : sig
  type t

  (** Exported histogram state.  Values are bucketed on a fixed log₂
      scale: bucket 0 catches [v <= 2⁻³²] (and non-positive values),
      bucket [i >= 1] covers [[2^(i-32), 2^(i-31))], and everything at or
      beyond [2³¹] lands in the last (64th) bucket. *)
  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
        (** non-empty buckets as (lower bound, count), increasing *)
  }

  type span_stat = { calls : int; total : float  (** seconds, wall-clock *) }

  val create : unit -> t
  val clear : t -> unit
  val is_empty : t -> bool

  val incr : ?by:int -> t -> string -> unit
  (** Add [by] (default 1) to a counter, creating it at 0 first — so
      [incr ~by:0] registers a counter without counting anything. *)

  val observe : t -> string -> float -> unit
  (** Record one value into a histogram. *)

  val span_add : t -> string -> float -> unit
  (** Record one span occurrence of the given duration (seconds). *)

  val merge : into:t -> t -> unit
  (** Fold the second registry into [into]: counters and span statistics
      add, histograms add bucket-wise and combine min/max.  Associative
      and commutative (up to float addition), with the empty registry as
      neutral element. *)

  val counter : t -> string -> int
  (** Current value; [0] when the counter was never touched. *)

  val counters : t -> (string * int) list
  (** All registered counters, sorted by name. *)

  val histogram : t -> string -> histogram option
  val histograms : t -> (string * histogram) list
  val span_stats : t -> string -> span_stat option
  val spans : t -> (string * span_stat) list

  val to_json : t -> string
  (** [{"counters": {...}, "histograms": {...}, "spans": {...}}] with all
      keys sorted, so equal registries render identically. *)

  val of_json : string -> (t, string) result
  (** Inverse of {!to_json}: [of_json (to_json r)] rebuilds a registry
      that renders to the same JSON. *)

  val pp_text : Format.formatter -> t -> unit
  (** Human-readable dump, one metric per line. *)
end

val current : unit -> Registry.t
(** The calling domain's registry. *)

val incr : ?by:int -> string -> unit
(** Bump a counter in the current domain's registry (no-op when
    disabled). *)

val touch : string -> unit
(** Register a counter at 0 without counting — keeps the exported key set
    stable even when an event never fires. *)

val observe : string -> float -> unit
(** Record a histogram value (no-op when disabled). *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time the thunk (wall-clock) and record the duration under the given
    span name; the result (or exception) passes through.  Spans nest
    freely — each records its own elapsed time.  When disabled, the thunk
    runs with no timing at all. *)

val publish : unit -> unit
(** Merge the current domain's registry into the shared accumulator and
    reset it.  Called by worker domains before they exit. *)

val snapshot : unit -> Registry.t
(** A fresh registry holding everything published so far plus the current
    domain's registry.  Does not reset anything. *)

val reset : unit -> unit
(** Clear the shared accumulator and the current domain's registry. *)
