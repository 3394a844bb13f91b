(** Small-sample statistics for the experiment harness. *)

val mean : float list -> float
(** The arithmetic mean; [nan] on an empty list.  A [nan] value
    propagates (use {!mean_by} to skip them). *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val percentile : float -> float list -> float
(** [percentile p values]: the [p]-th percentile ([0 <= p <= 100]) with
    linear interpolation between closest ranks (the R-7 / NumPy
    default); the list need not be sorted.

    NaN policy (mirrors a zero-draw [Crash.estimate]'s [est_p_defeat]): an
    empty sample returns [nan], never [0.0] — a zero would silently read
    as "no latency".
    [nan] propagates through downstream means and renders as a gap in
    CSV/plots; callers that need a total value must check the sample
    size first.
    @raise Invalid_argument when [p] is outside [0, 100]. *)

type quantiles = {
  q_n : int;  (** sample size; [0] means every quantile below is [nan] *)
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;  (** the 99.9th percentile *)
}

val quantiles : float list -> quantiles
(** The tail-latency summary of one sample in a single sort: {!percentile}
    at 50 / 95 / 99 / 99.9, with the same nan-on-empty policy. *)

val quantiles_slice : float array -> len:int -> quantiles
(** {!quantiles} over the prefix [a.(0 .. len - 1)] by repeated
    expected-O(n) selection, with no sorted copy.  Slots at and past
    [len] are neither read nor moved, so a caller can reuse one buffer
    (e.g. {!Engine.sojourns_into}).  Permutes the prefix; the values must
    be NaN-free (use {!reservoir_add}, which skips NaN).  [q_n = len].
    @raise Invalid_argument when [len] is outside [0, Array.length a]. *)

type reservoir
(** Bounded-memory uniform subsample of a stream (Vitter's algorithm R),
    for quantile summaries of samples too large to materialize. *)

val reservoir_create : cap:int -> rand_int:(int -> int) -> reservoir
(** [rand_int bound] must be uniform in [0 .. bound - 1] (pass the
    experiment's seeded stream, keeping runs deterministic).
    @raise Invalid_argument when [cap < 1]. *)

val reservoir_add : reservoir -> float -> unit
(** Offer one value; NaN is skipped (the {!mean_by} discipline). *)

val reservoir_count : reservoir -> int
(** Values offered (and not NaN) so far. *)

val reservoir_quantiles : reservoir -> quantiles
(** Quantiles of the retained subsample — exact while at most [cap]
    values were offered, an unbiased estimate beyond that.  [q_n] is the
    true stream count, so the [q_n = 0] ⇒ all-NaN contract survives. *)

val mean_by : ('a -> float) -> 'a list -> float
(** Mean of the projection over the items, skipping [nan] projections;
    [nan] when nothing measurable remains.  This is how the figures
    consume record-shaped samples directly. *)
