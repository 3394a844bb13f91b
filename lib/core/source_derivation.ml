let derive ?throughput ?hint ~dag ~platform ~eps ~proc_of () =
  let hint =
    match hint with
    | Some f -> f
    | None -> fun _ _ _ -> ([] : Replica.id list)
  in
  let mapping = Mapping.create ~dag ~platform ~eps in
  let copies = eps + 1 in
  (* A replica may sole-source through at most ⌊m/(ε+1)⌋ processors so
     that the ε+1 pairwise-disjoint kill sets all fit on the platform.  The
     floor is deliberate: [Chunk_scheduler.lane_budget] rounds
     factor·m/(ε+1) instead (7 against this 6 at m = 20, ε = 2), and
     switching to that rounding changes the cost figure's output. *)
  let budget = max 1 (Platform.size platform / copies) in
  let delta = match throughput with Some t -> 1.0 /. t | None -> infinity in
  let slack = delta *. (1.0 +. 1e-9) in
  let n_procs = Platform.size platform in
  let c_in = Array.make n_procs 0.0 and c_out = Array.make n_procs 0.0 in
  let support = Array.init (Dag.size dag) (fun _ -> Array.make copies Bitset.empty) in
  Array.iter
    (fun task ->
      (* Claim every sibling processor up front so that no replica's kill
         chain ever runs through the host of another replica of the task. *)
      let base_claim =
        List.fold_left
          (fun acc copy -> Bitset.add (proc_of task copy) acc)
          Bitset.empty
          (List.init copies Fun.id)
      in
      let claimed = ref base_claim in
      for copy = 0 to copies - 1 do
        let proc = proc_of task copy in
        (* A kill chain through the replica's own processor is harmless —
           the replica dies with that processor anyway — so it is exempt
           from the disjointness requirement. *)
        let others = Bitset.remove proc !claimed in
        let acc = ref (Bitset.singleton proc) in
        let commit_loads transfers =
          List.iter
            (fun (src_proc, time) ->
              if src_proc <> proc then begin
                c_out.(src_proc) <- c_out.(src_proc) +. time;
                c_in.(proc) <- c_in.(proc) +. time
              end)
            transfers
        in
        let fits transfers =
          let extra_in =
            List.fold_left
              (fun t (sp, time) -> if sp <> proc then t +. time else t)
              0.0 transfers
          in
          c_in.(proc) +. extra_in <= slack
          && List.for_all
               (fun (sp, time) -> sp = proc || c_out.(sp) +. time <= slack)
               transfers
        in
        let choose (pred, _) =
          let vol = Dag.volume dag pred task in
          let replicas = Mapping.replicas_of_task mapping pred in
          let usable (r : Replica.t) =
            let s = support.(pred).(r.id.Replica.copy) in
            copies = 1
            || (Bitset.disjoint s others
                && Bitset.cardinal !acc + Bitset.diff_cardinal s !acc <= budget)
          in
          let transfer (r : Replica.t) =
            (r.proc, Platform.comm_time platform r.proc proc vol)
          in
          let pick (r : Replica.t) =
            acc := Bitset.union !acc support.(pred).(r.id.Replica.copy);
            commit_loads [ transfer r ];
            (pred, [ r.Replica.id ])
          in
          let full () =
            let transfers =
              List.filter_map
                (fun (r : Replica.t) ->
                  if r.proc = proc then None else Some (transfer r))
                replicas
            in
            commit_loads transfers;
            (pred, List.map (fun (r : Replica.t) -> r.Replica.id) replicas)
          in
          match
            List.find_opt
              (fun (r : Replica.t) -> r.proc = proc && usable r)
              replicas
          with
          | Some r -> pick r
          | None ->
              (* Prefer the scheduler's own pairing when one was recorded:
                 that transfer was already accounted against the period
                 during the placement run. *)
              let hinted = hint task copy pred in
              let is_hinted (r : Replica.t) =
                List.exists (fun h -> Replica.compare_id h r.id = 0) hinted
              in
              let remote =
                List.filter usable replicas
                |> List.map (fun (r : Replica.t) ->
                       let growth =
                         Bitset.diff_cardinal support.(pred).(r.id.Replica.copy) !acc
                       in
                       (((not (is_hinted r)), growth, snd (transfer r)), r))
                |> List.sort (fun (ka, ra) (kb, rb) ->
                       match compare ka kb with
                       | 0 -> Replica.compare_id ra.Replica.id rb.Replica.id
                       | c -> c)
              in
              let fitting =
                List.find_opt (fun (_, r) -> fits [ transfer r ]) remote
              in
              (match fitting with
              | Some (_, r) -> pick r
              | None ->
                  let full_transfers =
                    List.filter_map
                      (fun (r : Replica.t) ->
                        if r.proc = proc then None else Some (transfer r))
                      replicas
                  in
                  if fits full_transfers || remote = [] then full ()
                  else pick (snd (List.hd remote)))
        in
        let chosen = List.map choose (Dag.preds dag task) in
        support.(task).(copy) <- !acc;
        claimed := Bitset.union !claimed !acc;
        Mapping.assign mapping
          { Replica.id = { Replica.task; copy }; proc; sources = chosen }
      done)
    (Topo.order dag);
  mapping
