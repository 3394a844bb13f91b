let latency_of_plan ?failed pl ~throughput =
  Option.map (Metrics.latency_of_depth ~throughput)
    (Replica_graph.depth ?failed pl)

(* The shared plan cache: the stage-model counterpart of
   [Program_cache.programs]. *)
let plans : Replica_graph.t Program_cache.t =
  Program_cache.create ~capacity:64 Replica_graph.compile

let cached_plan m = Program_cache.find plans m
