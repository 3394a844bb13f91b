(** The replica graph of a mapping, compiled into dense arrays.

    Every replica gets a dense id [rid = task * copies + copy].  Its
    source sets are stored as CSR: [rid] owns the groups
    [grp_off.(rid) .. grp_off.(rid + 1) - 1], one per predecessor task in
    the replica's source order, and group [g] owns the sources
    [src_off.(g) .. src_off.(g + 1) - 1], each a source rid [src.(k)]
    with hop cost [eta.(k)] ([0] when the source shares the consumer's
    processor, [1] otherwise).

    This is the one layout behind the liveness rule of the paper's
    "real execution" (§5): a replica takes, per predecessor, the first
    available input, and an exit takes its earliest surviving copy.  The
    event engine's program, the stage model ([Stage_latency]) and the
    exact calculus ([Reliability]) all read it from {!compile};
    {!evaluator} is the one sweep of that rule, and {!depth} its
    one-failure-set wrapper. *)

type t = private {
  mapping : Mapping.t;  (** the mapping compiled *)
  tasks : int;
  copies : int;  (** [eps + 1] *)
  rids : int;  (** [tasks * copies] *)
  procs : int;  (** platform size *)
  topo : int array;  (** a topological order of the tasks *)
  exits : int array;  (** the exit tasks *)
  placed : bool array;  (** per rid: the mapping has this replica *)
  proc : int array;  (** per rid: its processor, [-1] when unplaced *)
  grp_off : int array;  (** rid -> groups, length [rids + 1] *)
  src_off : int array;  (** group -> sources, length [n_groups + 1] *)
  src : int array;  (** per source: its rid *)
  eta : int array;  (** per source: [0] co-located, [1] across processors *)
}

val compile : Mapping.t -> t
(** The graph of a mapping, complete or partial (unplaced replicas are
    never alive).  Built once per mapping; the arrays are shared and must
    not be mutated. *)

val evaluator : t -> bool array -> int option
(** [evaluator g] allocates one stage buffer (one slot per rid) and
    returns the sweep of {!depth} over it: [evaluator g dead] is
    [depth ~failed g] for the failure set whose members are the [true]
    entries of the mask [dead] (one entry per processor).  Apply it
    partially to evaluate one failure set after another with no
    allocation beyond the [Some] of the answer: each call rewrites every
    slot of the buffer before reading it, so nothing of an earlier set
    carries over.  The caller owns the mask and may flip its entries
    between calls; the evaluator only reads it.  The buffer makes an
    evaluator single-threaded: build one per loop or per domain, never
    share one across domains.
    @raise Invalid_argument naming [Replica_graph.evaluator] when the
    mask's length is not [procs]. *)

val depth : ?failed:Platform.proc list -> t -> int option
(** The effective pipeline depth [S_eff] under the fail-silent failure
    set [failed] (default none): the maximum over exit tasks of the
    minimum, over that task's alive replicas, of the replica's stage.  A
    replica on a live processor is alive when every group has an alive
    source, and its stage is [max 1 (max over groups (min over alive
    sources (stage + eta)))].  [None] when some exit task has no alive
    replica (the failure set defeats the mapping); [Some 0] for the
    empty graph.  A thin wrapper that builds the mask of [failed] and
    runs a fresh {!evaluator} once; duplicates in [failed] are harmless.
    @raise Invalid_argument naming [Replica_graph.depth] when a processor
    in [failed] is outside [0, procs). *)
