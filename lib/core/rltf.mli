(** The Reverse LTF algorithm — §4.2.

    R-LTF traverses the application graph bottom-up (from the sink tasks)
    and guides every placement by Rule 1 — do not increase the pipeline
    stage of the replica being placed — and only then by the finish time;
    Rule 2's communication reduction is achieved by the same one-to-one
    pairing as LTF, applied while singleton replicas remain.  Concretely
    the implementation runs the shared chunk scheduler on the transpose
    graph with the stage-first ranking; the reverse run fixes the
    placements, and the forward communication structure is re-derived
    under the forward kill-set discipline ({!Source_derivation}), with the
    reverse pairings as hints.  In strict mode, a derived structure that
    cannot fit the period is reported as {!Types.Derived_overload} rather
    than returned. *)

val schedule : ?opts:Sched_api.options -> Types.problem -> Types.outcome
(** Run R-LTF under the given options ({!Sched_api.default} when omitted)
    and return the forward mapping. *)

val algo : (module Sched_api.Algo)
(** R-LTF as a registry entry (named ["R-LTF"]); see [Scheduler.all]. *)
