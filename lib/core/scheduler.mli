(** The public face of the scheduling core: the canonical configuration
    surface (re-exported from {!Sched_api}, whose record and [Algo]
    signature are the only ones in the codebase) and the registry of
    first-class algorithm modules that drives the figure sweeps.  The
    chunked list-scheduling engine shared by LTF and R-LTF lives in
    {!Chunk_scheduler}, with the full algorithm documentation.

    Code configures a run with one {!options} record:
    {[
      let opts = Scheduler.(default |> with_mode Best_effort) in
      Ltf.schedule ~opts prob
    ]}
    and discovers algorithms through {!all} rather than naming [Ltf] /
    [Rltf] directly. *)

include module type of struct
  include Sched_api
end

val all : (module Algo) list
(** The core algorithms, in presentation order: LTF then R-LTF.  Baseline
    heuristics register separately in [Baseline_registry.all]
    (lib/baselines). *)

val find : string -> (module Algo) option
(** Case-insensitive lookup in {!all} by [Algo.name]. *)
