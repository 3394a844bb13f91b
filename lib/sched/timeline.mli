(** Busy-interval timelines for one-port finish-time estimation.

    A timeline records half-open busy intervals on a resource (a
    compute core, a send port, a receive port).  It is mutable: {!insert}
    commits an interval in place.  Trial placements during processor
    selection never touch it; they carry their own tentative intervals in
    a {!probe} that {!fit} and {!joint_fit} merge with the
    committed ones.

    {b Contract.}  Two intervals [[s, f)] and [[s', f')] {e conflict}
    when they overlap by more than a [1e-12] rounding slack: [f > s' +
    1e-12] and [f' > s + 1e-12].  {!insert} and {!tentative} reject a
    conflict, so accepted intervals overlap by at most the slack; one
    shorter than the slack may nest inside another, and the queries still
    see the outer one.  An answer of {!fit} or {!joint_fit}
    conflicts with nothing it was asked about, so it is always insertable
    there.

    Every query is a loop over the interval arrays (a search, then a
    merged scan of the committed and the probe intervals) with no
    polymorphic comparison, and allocates nothing per interval it passes.
    The probe path ({!fit}, {!joint_fit}, {!tentative}) reads its floats
    from a caller-owned {!query} and writes its answer there, so it
    allocates nothing at all: a float passed to or returned from a
    function of another module would be boxed. *)

type t

type probe
(** Tentative busy intervals sorted by start, layered on top of a
    committed timeline.  A probe is caller-owned scratch: the probing loop
    keeps one per resource, {!clear}s it before each candidate, and extends
    it in place with {!tentative}.  On equal starts a query visits the
    committed interval first, then the probe's in the order they were
    added. *)

val create : unit -> t
(** A fresh timeline with no busy interval. *)

val probe : unit -> probe
(** A fresh, empty probe. *)

val clear : probe -> unit
(** Empty the probe, keeping its storage. *)

type query = {
  mutable ready : float;
  mutable duration : float;
  mutable start : float;
}
(** A fit request and its answer in one flat float record: a fit reads
    [ready] and [duration] and writes [start]; {!tentative} reads [start]
    and [duration]. *)

val fit : ?probe:probe -> t -> query -> unit
(** The first fit: starting from [ready], walk the busy intervals of the
    timeline and of [probe] in start order, moving the start past each
    one that [[s, s + duration)] cannot end before (within the slack),
    and write the answer to [start].  It conflicts with none of them.  A
    zero-duration request answers the earliest instant not interior to a
    busy interval.
    @raise Invalid_argument if [duration < 0]. *)

val earliest_fit : ?probe:probe -> t -> ready:float -> duration:float -> float
(** {!fit} with its floats passed as arguments; the answer comes back
    boxed. *)

val joint_fit : t -> probe -> t -> probe -> query -> unit
(** [joint_fit a pa b pb q]: the earliest start at or after [q.ready]
    that fits both [a] under [pa] and [b] under [pb] (a transfer on a send
    port and a receive port), written to [q.start].  It is the fixpoint of
    alternating {!fit} on [a] and on [b], starting with [a], and answers
    that alternation's answer bit for bit; each timeline's search resumes
    where its previous one ended instead of starting over.
    @raise Invalid_argument if [q.duration < 0]. *)

val insert : t -> start:float -> duration:float -> unit
(** Mark [[start, start + duration)] busy.  An empty interval, whose
    computed finish is not after [start] (a zero duration, or one lost to
    rounding), is a no-op.
    @raise Invalid_argument if it conflicts with an existing interval
    (callers reserve via {!fit}) or if [duration < 0]. *)

val tentative : t -> probe -> query -> unit
(** [tentative t p q] adds [[q.start, q.start + q.duration)] to the probe
    [p], leaving the timeline [t] itself untouched; an empty
    interval, as for {!insert}, leaves [p] unchanged.
    @raise Invalid_argument under the same conditions as {!insert},
    checked against the committed and the probe intervals. *)

val busy_until : t -> float
(** The latest finish of a busy interval; [0] for an empty timeline. *)

val intervals : t -> (float * float) list
(** Busy intervals in increasing order (for tests and rendering). *)
