(** Arrival processes for the open-system traffic model.

    The closed-system engine injects item [k] at exactly [k · period] —
    a steady, clairvoyant source.  An {!t} instead describes {e when
    work shows up}: deterministic-period (the closed system as a special
    case), Poisson (memoryless open traffic), MMPP (a two-phase
    Markov-modulated Poisson process alternating burst and idle phases —
    the standard bursty-traffic model), or a trace of externally
    recorded timestamps.

    A process is {e materialized} by {!times} into the nondecreasing
    offsets of the first [n] arrivals, which is what
    [Engine.Run.Open] consumes.  Randomized processes draw from the
    caller's {!Rng.t} child stream, so the common-random-numbers
    discipline of the experiment sweeps applies unchanged: equal seeds
    give equal arrival sequences, and {!Poisson} inter-arrival gaps are
    drawn as unit-rate quanta scaled by [1/rate], so sweeping the rate
    moves every arrival monotonically instead of resampling it. *)

type t =
  | Deterministic of { period : float }
      (** item [k] arrives at exactly [float_of_int k *. period] — the
          same IEEE expression the closed-system engine uses, so a
          deterministic open run is bit-identical to a closed one *)
  | Poisson of { rate : float }
      (** exponential inter-arrival gaps with mean [1 / rate] *)
  | Mmpp of {
      burst_rate : float;  (** Poisson rate inside a burst phase *)
      idle_rate : float;  (** Poisson rate inside an idle phase *)
      mean_burst : float;  (** mean burst-phase length (time units) *)
      mean_idle : float;  (** mean idle-phase length (time units) *)
    }
      (** two-phase MMPP, starting in the burst phase; phase lengths are
          exponential with the given means *)
  | Trace of float list
      (** externally recorded arrival offsets, nondecreasing, relative
          to the start of the run *)

val times : ?rng:Rng.t -> n:int -> t -> float array
(** The offsets of the first [n] arrivals, relative to the start of the
    run: a nondecreasing array of [n] finite non-negative floats.
    [Deterministic] and [Trace] consume no randomness; the others
    require [rng] and advance it deterministically.
    @raise Invalid_argument if [n < 0], a rate or mean phase length is
    not positive and finite, [rng] is missing for a random process, or
    a [Trace] has fewer than [n] offsets, a negative / non-finite
    offset, or decreasing offsets. *)

val to_string : t -> string
(** One-line description for logs and figure captions. *)
