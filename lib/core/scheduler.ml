include Sched_api

let all : (module Sched_api.Algo) list = [ Ltf.algo; Rltf.algo ]

let find name =
  let norm s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun (module A : Sched_api.Algo) -> norm A.name = norm name) all
