(* One flat pass in topological order over per-slot ([task * (ε+1) +
   copy]) hosts, kill sets and ids.  Bandwidths come from the platform's
   own matrix: a [float] returned across a module boundary is boxed. *)
let derive ?throughput ?(hint = fun _ _ _ -> false) ~dag ~platform ~eps
    ~proc_of () =
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
  let n_procs = Platform.size platform and bw = Platform.bandwidths platform in
  let c_in = Array.make n_procs 0.0 and c_out = Array.make n_procs 0.0 in
  let n_slots = Dag.size dag * copies in
  let host = Array.make n_slots 0 and support = Array.make n_slots Bitset.empty in
  let ids = Array.make n_slots { Replica.task = 0; copy = 0 } in
  (* The replica being sourced: task, copy, host, the kill set it grows
     in place and that set's size, and its siblings' claimed processors. *)
  let task = ref 0 and copy = ref 0 and proc = ref 0 in
  let kill = Bitset.acc ~universe:n_procs and card = ref 1 in
  let others = ref Bitset.empty in
  (* Per copy of the predecessor being chosen from: transfer time,
     kill-set growth, usability and hint; [order] ranks the usable copies. *)
  let time = Array.make copies 0.0 and growth = Array.make copies 0 in
  let usable = Array.make copies false and hinted = Array.make copies false in
  let order = Array.make copies 0 in
  (* Whether the transfers from copies [lo .. hi] of the predecessor at
     [base] (those not already local) keep the inbound time and every
     sender's outbound time within the period; [charge] books them.  Both
     run in copy order, so every sum adds in one order. *)
  let fits base lo hi =
    let extra = ref 0.0 and ok = ref true in
    for c = lo to hi do
      let sp = host.(base + c) in
      if sp <> !proc then begin
        extra := !extra +. time.(c);
        if not (c_out.(sp) +. time.(c) <= slack) then ok := false
      end
    done;
    c_in.(!proc) +. !extra <= slack && !ok
  in
  let charge base lo hi =
    for c = lo to hi do
      let sp = host.(base + c) in
      if sp <> !proc then begin
        c_out.(sp) <- c_out.(sp) +. time.(c);
        c_in.(!proc) <- c_in.(!proc) +. time.(c)
      end
    done
  in
  let pick pred base c =
    Bitset.acc_union kill support.(base + c);
    card := !card + growth.(c);
    charge base c c;
    (pred, [ ids.(base + c) ])
  in
  (* Remote preference: hinted, then smaller kill-set growth, then
     cheaper transfer, then lower copy. *)
  let precedes a b =
    if hinted.(a) <> hinted.(b) then hinted.(a)
    else if growth.(a) <> growth.(b) then growth.(a) < growth.(b)
    else
      let c = Float.compare time.(a) time.(b) in
      if c <> 0 then c < 0 else a < b
  in
  (* Per predecessor: a usable co-located replica, else the best usable
     remote replica whose transfer fits the period, else the full group
     when it fits or nothing is usable, else the best usable remote one. *)
  let choose (pred, vol) =
    let base = pred * copies and local = ref (-1) in
    for c = 0 to copies - 1 do
      let h = host.(base + c) and s = support.(base + c) in
      growth.(c) <- Bitset.acc_growth kill s;
      usable.(c) <-
        copies = 1
        || (Bitset.disjoint s !others && !card + growth.(c) <= budget);
      time.(c) <- (if h = !proc then 0.0 else vol /. bw.(h).(!proc));
      if !local < 0 && h = !proc && usable.(c) then local := c
    done;
    if !local >= 0 then pick pred base !local
    else begin
      (* Prefer the scheduler's own pairing when one was recorded: that
         transfer was already accounted against the period during the
         placement run. *)
      let n = ref 0 in
      for c = 0 to copies - 1 do
        if usable.(c) then begin
          hinted.(c) <- hint !task !copy ids.(base + c);
          let i = ref !n in
          while !i > 0 && precedes c order.(!i - 1) do
            order.(!i) <- order.(!i - 1);
            decr i
          done;
          order.(!i) <- c;
          incr n
        end
      done;
      let i = ref 0 in
      while !i < !n && not (fits base order.(!i) order.(!i)) do
        incr i
      done;
      if !i < !n then pick pred base order.(!i)
      else if fits base 0 (copies - 1) || !n = 0 then begin
        charge base 0 (copies - 1);
        (pred, List.init copies (fun c -> ids.(base + c)))
      end
      else pick pred base order.(0)
    end
  in
  Array.iter
    (fun t ->
      let base = t * copies in
      (* Claim every sibling processor up front so that no replica's kill
         chain ever runs through the host of another replica of the task. *)
      let claimed = ref Bitset.empty in
      for c = 0 to copies - 1 do
        host.(base + c) <- proc_of t c;
        ids.(base + c) <- { Replica.task = t; copy = c };
        claimed := Bitset.add host.(base + c) !claimed
      done;
      for c = 0 to copies - 1 do
        task := t;
        copy := c;
        proc := host.(base + c);
        (* A kill chain through the replica's own processor is harmless —
           the replica dies with that processor anyway — so it is exempt
           from the disjointness requirement. *)
        others := Bitset.remove !proc !claimed;
        Bitset.acc_reset kill !proc;
        card := 1;
        let sources = List.map choose (Dag.preds dag t) in
        support.(base + c) <- Bitset.of_acc kill;
        claimed := Bitset.union !claimed support.(base + c);
        Mapping.assign mapping
          { Replica.id = ids.(base + c); proc = !proc; sources }
      done)
    (Topo.order dag);
  mapping
