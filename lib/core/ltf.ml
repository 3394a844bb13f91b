let schedule_state ?opts prob =
  Obs.with_span "core.ltf.run" (fun () ->
      Chunk_scheduler.schedule ?opts ~rank:Chunk_scheduler.Finish_time prob)

let schedule ?opts prob = Result.map State.mapping (schedule_state ?opts prob)

module Algo = struct
  let name = "LTF"

  let run ?opts prob = schedule ?opts prob
end

let algo : (module Sched_api.Algo) = (module Algo)
