(** Derive fault-tolerant forward source sets for fixed replica placements.

    The bottom-up R-LTF run decides {e where} every replica lives, but its
    pairing structure is expressed in the reverse data-flow direction and
    does not by itself bound the forward kill chains.  This module rebuilds
    the communication structure in the forward direction, under the same
    support-set discipline as the forward scheduler: per predecessor, a
    replica receives from a co-located replica when one is available with a
    kill set disjoint from its siblings', else from the cheapest remote
    replica with a disjoint kill set, else from the full replica group
    (which no single failure can silence).  Sibling processors are claimed
    up front, so the resulting kill sets of each task's replicas are
    pairwise disjoint by construction and the mapping tolerates ε
    fail-silent processor failures. *)

val derive :
  ?throughput:float ->
  ?hint:(Dag.task -> int -> Replica.id -> bool) ->
  dag:Dag.t ->
  platform:Platform.t ->
  eps:int ->
  proc_of:(Dag.task -> int -> Platform.proc) ->
  unit ->
  Mapping.t
(** [derive ~dag ~platform ~eps ~proc_of] builds a complete mapping whose
    replica [copy] of [task] sits on [proc_of task copy].  The placements
    must put replicas of the same task on pairwise distinct processors.
    The result always satisfies the structural and fault-tolerance
    invariants; the throughput of the derived communication structure is
    the caller's to check. *)

(** The optional [hint task copy src] says whether replica [src] of a
    predecessor of [task] is a preferred source of replica [copy] of
    [task] — e.g. the pairing recorded by a previous scheduling pass whose
    communication cost was already charged against the period.  Hinted
    sources are preferred among the usable remote sources.  The predicate
    must be pure: it is asked only about usable remote candidates, in no
    promised order. *)
