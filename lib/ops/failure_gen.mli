(** Exponentially-distributed fail-stop arrivals for the operations
    simulator.

    Every processor has an exponential lifetime with the same rate [λ],
    so failures are uniform across the platform.  Processors are
    fail-stop: each crashes at most once and is never repaired, matching
    the paper's failure model. *)

type hazard = {
  lambda : float;  (** failure rate λ (crashes per time unit) *)
}

val uniform : lambda:float -> hazard
(** The hazard of rate [lambda] on every processor. *)

val lifetimes :
  rng:Rng.t -> hazard -> Platform.t -> (Platform.proc * float) list
(** One crash instant per processor, sorted by time (ties by processor
    id); processors with zero rate never crash and are omitted.  The
    standard-exponential quantum of each processor is drawn from [rng] in
    processor order {e before} the rate is applied, so two calls with
    equal-state generators and different [λ] return timelines that are
    exact time-rescalings of each other — the crash set inside any fixed
    horizon grows monotonically with [λ] (common random numbers, the
    property the chaos suite's availability-monotonicity assertion leans
    on).
    @raise Invalid_argument if [λ < 0]. *)

(** Correlated crash draws: processors grouped into failure domains
    (racks, power feeds) share a Marshall–Olkin common shock. *)
type correlation = {
  domains : Faults.Domains.t;  (** the partition into failure domains *)
  shock_lambda : float;
      (** rate of each domain's common-shock exponential; [0] =
          independent crashes (exactly {!lifetimes}) *)
}

val correlated_lifetimes :
  rng:Rng.t -> hazard -> correlation -> Platform.t -> (Platform.proc * float) list
(** Common-shock crash draws: processor [u] crashes at
    [min(own_u, shock_{dom(u)})] where [own_u] is its {!lifetimes}
    exponential and each domain's shock is exponential with rate
    [shock_lambda] — every member of a shocked domain dies at the same
    instant (same [t], distinct processors).  Per-processor quanta are
    drawn first, in processor order — the exact stream prefix
    {!lifetimes} consumes — then one shock quantum per domain, in domain
    order; hence [shock_lambda = 0] reproduces the independent timeline
    bit-identically, and along the [shock_lambda] axis crash sets are
    nested (common random numbers), mirroring the λ-monotonicity of
    {!lifetimes}.
    @raise Invalid_argument if [λ < 0], [shock_lambda < 0], or the
    domains partition a different number of processors. *)
