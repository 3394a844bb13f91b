(** Busy-interval timelines for one-port finish-time estimation.

    A timeline records disjoint half-open busy intervals on a resource (a
    compute core, a send port, a receive port).  It is mutable: {!insert}
    commits an interval in place.  Trial placements during processor
    selection never touch it; they carry their own tentative intervals in
    a {!probe} that {!earliest_fit} merges with the committed ones. *)

type t

type probe = (float * float) list
(** Tentative busy intervals [(start, finish)] sorted by start, layered on
    top of a committed timeline.  Build it with {!tentative}; [[]] is the
    empty probe. *)

val create : unit -> t
(** A fresh timeline with no busy interval. *)

val earliest_fit : ?probe:probe -> t -> ready:float -> duration:float -> float
(** The earliest start [s ≥ ready] such that [[s, s + duration)] does not
    intersect any busy interval of the timeline or of [probe].  A
    zero-duration request returns the earliest instant not interior to a
    busy interval. *)

val insert : t -> start:float -> duration:float -> unit
(** Mark [[start, start + duration)] busy; a zero duration is a no-op.
    @raise Invalid_argument if it overlaps an existing interval (callers
    must reserve via {!earliest_fit}) or if [duration < 0]. *)

val tentative : ?probe:probe -> t -> start:float -> duration:float -> probe
(** [probe] extended with [[start, start + duration)], leaving the timeline
    itself untouched; a zero duration returns [probe] unchanged.
    @raise Invalid_argument under the same conditions as {!insert},
    checked against the committed and the probe intervals. *)

val busy_until : t -> float
(** End of the last busy interval; [0] for an empty timeline. *)

val intervals : t -> (float * float) list
(** Busy intervals in increasing order (for tests and rendering). *)
