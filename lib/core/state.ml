(* Per-replica attributes live in flat arrays indexed [task * (eps+1) +
   copy] so a million-task schedule is a handful of contiguous slabs
   rather than a forest of per-task records.

   Every float the placement step computes per candidate lives in a float
   array or an all-float record, and no function that takes or returns a
   float is called across a module boundary on that path: such a float
   would be boxed.  Platform speeds and bandwidths are therefore read from
   the platform's own arrays, and the timelines are queried through one
   reused [Timeline.query]. *)

type floats = { mutable start : float; mutable finish : float; mutable penalty : float }

type probe = {
  mutable p_task : Dag.task;
  mutable p_copy : int;
  mutable p_proc : Platform.proc; (* -1: holds no placement *)
  mutable p_variant : int array;
  mutable p_stage : int;
  mutable p_feasible : bool;
  p_at : floats;
  mutable p_n : int;
  mutable p_src : int array;
  mutable p_src_proc : int array;
  mutable p_dur : float array;
  mutable p_comm_start : float array;
}

(* The placed replicas of each predecessor of the task being placed, read
   once per step: predecessor [k] (in [Dag.preds] order) has its replicas
   at [grp_off.(k)] up to [grp_off.(k + 1)], in copy order, with their
   slot, host and kill set. *)
type step = {
  mutable task : Dag.task;
  mutable copy : int;
  mutable n_preds : int;
  mutable grp_off : int array;
  mutable grp_slot : int array;
  mutable grp_host : Platform.proc array;
  mutable grp_kill : Bitset.t array;
}

type t = {
  prob : Types.problem;
  mapping : Mapping.t;
  delta : float;
  copies : int;
  loads : Loads.t;
  proc_tl : Timeline.t array;
  send_tl : Timeline.t array;
  recv_tl : Timeline.t array;
  finish_arr : float array; (* [task * copies + copy]; nan = unplaced *)
  stage_arr : int array;    (* [task * copies + copy]; 0 = unplaced *)
  proc_arr : int array;     (* [task * copies + copy]; the host once placed *)
  support_arr : Bitset.t array; (* [task * copies + copy]; kill sets *)
  speed : float array; (* the platform's, per processor *)
  bw : float array array; (* the platform's, [src].(dst), src <> dst *)
  (* The placement step: its predecessors and their volumes, the
     execution weight of its task in [weight.(0)], and the floor sources
     flattened per predecessor (see [set_floor]). *)
  step : step;
  mutable preds : Dag.task array;
  mutable vols : float array;
  weight : float array;
  mutable fl_off : int array;
  mutable fl_finish : float array;
  mutable fl_stage : int array;
  mutable fl_host : int array;
  kill : Bitset.acc; (* the kill set a source row grows *)
  (* The two probe buffers, swapped when the candidate wins. *)
  mutable cand : probe;
  mutable best : probe;
  (* Probe scratch, reused by every [evaluate], [admission] and floor. *)
  query : Timeline.query;
  recv_probe : Timeline.probe;
  send_probe : Timeline.probe array; (* per sender processor *)
  out_sum : float array;
      (* per source processor: its outgoing time in the admission being
         judged; nan outside it *)
  out_procs : int array; (* those source processors, in first-transfer order *)
}

let empty_probe () =
  {
    p_task = 0;
    p_copy = 0;
    p_proc = -1;
    p_variant = [||];
    p_stage = 0;
    p_feasible = false;
    p_at = { start = 0.0; finish = 0.0; penalty = 0.0 };
    p_n = 0;
    p_src = [||];
    p_src_proc = [||];
    p_dur = [||];
    p_comm_start = [||];
  }

let create (prob : Types.problem) =
  let plat = prob.platform in
  let n_procs = Platform.size plat in
  let copies = prob.eps + 1 in
  let slots = Dag.size prob.dag * copies in
  {
    prob;
    mapping = Mapping.create ~dag:prob.dag ~platform:plat ~eps:prob.eps;
    delta = Types.period prob;
    copies;
    loads = Loads.create ~n_procs;
    proc_tl = Array.init n_procs (fun _ -> Timeline.create ());
    send_tl = Array.init n_procs (fun _ -> Timeline.create ());
    recv_tl = Array.init n_procs (fun _ -> Timeline.create ());
    finish_arr = Array.make slots nan;
    stage_arr = Array.make slots 0;
    proc_arr = Array.make slots (-1);
    support_arr = Array.make slots Bitset.empty;
    speed = Platform.speeds plat;
    bw = Platform.bandwidths plat;
    step =
      {
        task = 0;
        copy = 0;
        n_preds = 0;
        grp_off = [| 0 |];
        grp_slot = [||];
        grp_host = [||];
        grp_kill = [||];
      };
    preds = [||];
    vols = [||];
    weight = [| 0.0 |];
    fl_off = [| 0 |];
    fl_finish = [||];
    fl_stage = [||];
    fl_host = [||];
    kill = Bitset.acc ~universe:n_procs;
    cand = empty_probe ();
    best = empty_probe ();
    query = { Timeline.ready = 0.0; duration = 0.0; start = 0.0 };
    recv_probe = Timeline.probe ();
    send_probe = Array.init n_procs (fun _ -> Timeline.probe ());
    out_sum = Array.make n_procs nan;
    out_procs = Array.make n_procs 0;
  }

let problem s = s.prob
let mapping s = s.mapping

let slot s (id : Replica.id) = (id.task * s.copies) + id.copy

let id_of_slot s k = { Replica.task = k / s.copies; copy = k mod s.copies }

let not_placed fn id =
  invalid_arg
    (Printf.sprintf "State.%s: %s not placed" fn (Replica.id_to_string id))

let finish s (id : Replica.id) =
  let f = s.finish_arr.(slot s id) in
  if Float.is_nan f then not_placed "finish" id;
  f

let stage s (id : Replica.id) =
  let st = s.stage_arr.(slot s id) in
  if st = 0 then not_placed "stage" id;
  st

let loads s = s.loads

let support s (id : Replica.id) = s.support_arr.(slot s id)

(* The kill set of a replica given its placement and sources: the
   processors whose individual failure makes it unable to run.  A
   predecessor covered by a single source replica inherits that source's
   kill set; a predecessor covered by all eps+1 replicas contributes
   nothing when their kill sets are pairwise disjoint (no single failure
   can starve it) — for any other source-set shape we fall back to the
   intersection of the sources' kill sets, which is the exact single-proc
   starvation channel. *)
let support_of_sources s ~proc ~sources =
  List.fold_left
    (fun acc (_, ids) ->
      match ids with
      | [] -> acc
      | [ (src : Replica.id) ] -> Bitset.union acc (support s src)
      | first :: rest ->
          if List.length ids = Mapping.n_copies s.mapping then acc
          else
            Bitset.union acc
              (List.fold_left
                 (fun inter (src : Replica.id) -> Bitset.inter inter (support s src))
                 (support s first) rest))
    (Bitset.singleton proc) sources

let send_ready s u = Timeline.busy_until s.send_tl.(u)

(* [Float.max], bit for bit, inlined: a call would box both floats. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if y < x then x
  else if y = x then if x = 0.0 && Float.sign_bit x then y else x
  else Float.max x y

let[@inline] comm_time s ~src ~dst vol =
  if src = dst then 0.0 else vol /. s.bw.(src).(dst)

let[@inline] exec_time s proc = s.weight.(0) /. s.speed.(proc)

(* Arrays of the placement step only ever grow. *)
let grown_int a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let grown_float a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0.0

let reserve p ~n_preds ~n_transfers =
  p.p_variant <- grown_int p.p_variant n_preds;
  if Array.length p.p_src < n_transfers then begin
    p.p_src <- grown_int p.p_src n_transfers;
    p.p_src_proc <- grown_int p.p_src_proc n_transfers;
    p.p_dur <- grown_float p.p_dur n_transfers;
    p.p_comm_start <- grown_float p.p_comm_start n_transfers
  end

let start_step s ~task ~copy =
  let st = s.step and preds = Dag.preds s.prob.dag task in
  let n = List.length preds in
  s.preds <- grown_int s.preds n;
  s.vols <- grown_float s.vols n;
  st.grp_off <- grown_int st.grp_off (n + 1);
  let cap = n * s.copies in
  if Array.length st.grp_slot < cap then begin
    st.grp_slot <- grown_int st.grp_slot cap;
    st.grp_host <- grown_int st.grp_host cap;
    st.grp_kill <- Array.make (Array.length st.grp_slot) Bitset.empty
  end;
  let at = ref 0 in
  List.iteri
    (fun k (pred, vol) ->
      s.preds.(k) <- pred;
      s.vols.(k) <- vol;
      for c = 0 to s.copies - 1 do
        let sl = (pred * s.copies) + c in
        if s.proc_arr.(sl) >= 0 then begin
          st.grp_slot.(!at) <- sl;
          st.grp_host.(!at) <- s.proc_arr.(sl);
          st.grp_kill.(!at) <- s.support_arr.(sl);
          incr at
        end
      done;
      st.grp_off.(k + 1) <- !at)
    preds;
  st.task <- task;
  st.copy <- copy;
  st.n_preds <- n;
  s.weight.(0) <- Dag.exec s.prob.dag task;
  reserve s.cand ~n_preds:n ~n_transfers:!at;
  reserve s.best ~n_preds:n ~n_transfers:!at;
  s.best.p_proc <- -1

let candidate s = s.cand
let incumbent s = s.best

let swap s =
  let c = s.cand in
  s.cand <- s.best;
  s.best <- c

(* The source replicas of predecessor [k] under [row] are entries
   [first] to [last] of its group, or the one replica the row names: loop
   [i] over that range and read [source_at].  Loops, not an iterator:
   a closure over the loop's counters would be allocated per call. *)
let[@inline] first s row k = if row.(k) < 0 then s.step.grp_off.(k) else 0

let[@inline] last s row k = if row.(k) < 0 then s.step.grp_off.(k + 1) - 1 else 0

let[@inline] source_at s row k i = if row.(k) < 0 then s.step.grp_slot.(i) else row.(k)

(* Whether entry [i] of predecessor [k]'s group sends to [proc] in less
   time than entry [j], or in the same time with the smaller slot. *)
let closer s ~k ~proc i j =
  let st = s.step and vol = s.vols.(k) in
  let ci = comm_time s ~src:st.grp_host.(i) ~dst:proc vol
  and cj = comm_time s ~src:st.grp_host.(j) ~dst:proc vol in
  ci < cj || (ci = cj && st.grp_slot.(i) < st.grp_slot.(j))

(* Greedy row: walk the predecessors accumulating the kill set,
   sole-sourcing only while the lane budget allows and preferring the
   source that grows the chain least, then the cheapest transfer, then the
   smallest slot.  [card] tracks the accumulator's cardinality. *)
let greedy_row s ~claimed ~budget ~proc row =
  let st = s.step and kill = s.kill in
  Bitset.acc_reset kill proc;
  let card = ref 1 in
  for k = 0 to st.n_preds - 1 do
    let room = budget - !card in
    let pick = ref (-1) and pick_growth = ref 0 in
    for i = st.grp_off.(k) to st.grp_off.(k + 1) - 1 do
      if Bitset.disjoint st.grp_kill.(i) claimed then begin
        let growth = Bitset.acc_growth kill st.grp_kill.(i) in
        if
          growth <= room
          && (!pick < 0
             || growth < !pick_growth
             || (growth = !pick_growth && closer s ~k ~proc i !pick))
        then begin
          pick := i;
          pick_growth := growth
        end
      end
    done;
    if !pick >= 0 then begin
      Bitset.acc_union kill st.grp_kill.(!pick);
      card := !card + !pick_growth;
      row.(k) <- st.grp_slot.(!pick)
    end
    else row.(k) <- -1
  done

(* Conservative row: the first co-located sole source that is free and
   fits, else the full group; keeps the claim small for later siblings. *)
let conservative_row s ~claimed ~budget ~proc row =
  let st = s.step and kill = s.kill in
  Bitset.acc_reset kill proc;
  let card = ref 1 in
  for k = 0 to st.n_preds - 1 do
    let room = budget - !card in
    let local = ref (-1) and growth = ref 0 in
    let i = ref st.grp_off.(k) in
    while !local < 0 && !i < st.grp_off.(k + 1) do
      if st.grp_host.(!i) = proc && Bitset.disjoint st.grp_kill.(!i) claimed then begin
        let g = Bitset.acc_growth kill st.grp_kill.(!i) in
        if g <= room then begin
          local := !i;
          growth := g
        end
      end;
      incr i
    done;
    if !local >= 0 then begin
      Bitset.acc_union kill st.grp_kill.(!local);
      card := !card + !growth;
      row.(k) <- st.grp_slot.(!local)
    end
    else row.(k) <- -1
  done

(* Whether two rows name the same replicas: a one-replica group (ε = 0)
   is the same source whether a row names its replica or the group. *)
let named st row k =
  if row.(k) < 0 && st.grp_off.(k + 1) - st.grp_off.(k) = 1 then
    st.grp_slot.(st.grp_off.(k))
  else row.(k)

let same_row st a b =
  let k = ref 0 in
  while !k < st.n_preds && named st a !k = named st b !k do
    incr k
  done;
  !k = st.n_preds

let general_rows s (policy : Sched_api.source_policy) ~claimed ~budget ~proc rows =
  match policy with
  | Greedy_only ->
      greedy_row s ~claimed ~budget ~proc rows.(0);
      1
  | Conservative_only ->
      conservative_row s ~claimed ~budget ~proc rows.(0);
      1
  | Both_variants ->
      greedy_row s ~claimed ~budget ~proc rows.(0);
      conservative_row s ~claimed ~budget ~proc rows.(1);
      if same_row s.step rows.(0) rows.(1) then 1 else 2

(* Transfers in order of data readiness (source finish, then slot — the
   replica id order), so the probe is deterministic.  The order is total:
   no two transfers share a source.  Insertion: a placement has a handful
   of transfers.  The duration is computed here, not passed: a float
   argument would be boxed. *)
let add_transfer s c ~k ~proc sl sp =
  let dur = comm_time s ~src:sp ~dst:proc s.vols.(k) in
  let f = s.finish_arr.(sl) in
  let j = ref c.p_n in
  while
    !j > 0
    &&
    let g = s.finish_arr.(c.p_src.(!j - 1)) in
    f < g || (f = g && sl < c.p_src.(!j - 1))
  do
    c.p_src.(!j) <- c.p_src.(!j - 1);
    c.p_src_proc.(!j) <- c.p_src_proc.(!j - 1);
    c.p_dur.(!j) <- c.p_dur.(!j - 1);
    decr j
  done;
  c.p_src.(!j) <- sl;
  c.p_src_proc.(!j) <- sp;
  c.p_dur.(!j) <- dur;
  c.p_n <- c.p_n + 1

let transfers s ~proc row =
  let st = s.step and c = s.cand in
  c.p_task <- st.task;
  c.p_copy <- st.copy;
  c.p_proc <- proc;
  c.p_n <- 0;
  Array.blit row 0 c.p_variant 0 st.n_preds;
  for k = 0 to st.n_preds - 1 do
    for i = first s row k to last s row k do
      let sl = source_at s row k i in
      let sp = s.proc_arr.(sl) in
      if sp <> proc then add_transfer s c ~k ~proc sl sp
    done
  done

let[@inline] over s current extra = fmax 0.0 (current +. extra -. s.delta)

(* The outgoing durations are summed per source processor in [out_sum], in
   transfer order, and the penalty adds the overflows of the source
   processors in the order of their first transfer. *)
let admission s =
  let c = s.cand and l = s.loads in
  let proc = c.p_proc in
  let exec = exec_time s proc in
  let incoming = ref 0.0 and n_out = ref 0 in
  for k = 0 to c.p_n - 1 do
    let sp = c.p_src_proc.(k) and dur = c.p_dur.(k) in
    incoming := !incoming +. dur;
    let prev = s.out_sum.(sp) in
    if Float.is_nan prev then begin
      s.out_procs.(!n_out) <- sp;
      incr n_out;
      s.out_sum.(sp) <- 0.0 +. dur
    end
    else s.out_sum.(sp) <- prev +. dur
  done;
  let slack = s.delta *. (1.0 +. 1e-9) in
  let out_fits = ref true and out_over = ref 0.0 in
  for k = 0 to !n_out - 1 do
    let sp = s.out_procs.(k) in
    let extra = s.out_sum.(sp) in
    if not (l.Loads.c_out.(sp) +. extra <= slack) then out_fits := false;
    out_over := !out_over +. over s l.Loads.c_out.(sp) extra;
    s.out_sum.(sp) <- nan
  done;
  c.p_feasible <-
    l.Loads.sigma.(proc) +. exec <= slack
    && l.Loads.c_in.(proc) +. !incoming <= slack
    && !out_fits;
  c.p_at.penalty <-
    over s l.Loads.sigma.(proc) exec +. over s l.Loads.c_in.(proc) !incoming +. !out_over

(* The floor sources are flattened: predecessor [k]'s sit at [fl_off.(k)]
   up to [fl_off.(k + 1)], with their finish, stage and host. *)
let set_floor s row =
  let n = s.step.n_preds in
  s.fl_off <- grown_int s.fl_off (n + 1);
  let cap = Array.length s.step.grp_slot in
  s.fl_finish <- grown_float s.fl_finish cap;
  s.fl_stage <- grown_int s.fl_stage cap;
  s.fl_host <- grown_int s.fl_host cap;
  let at = ref 0 in
  for k = 0 to n - 1 do
    for i = first s row k to last s row k do
      let sl = source_at s row k i in
      s.fl_finish.(!at) <- s.finish_arr.(sl);
      s.fl_stage.(!at) <- s.stage_arr.(sl);
      s.fl_host.(!at) <- s.proc_arr.(sl);
      incr at
    done;
    s.fl_off.(k + 1) <- !at
  done

let iter_hosts s f =
  for i = 0 to s.fl_off.(s.step.n_preds) - 1 do
    f s.fl_host.(i)
  done

(* Every source set drawing one of the floor replicas per predecessor has
   a stage no lower than the per-predecessor minimum (+1 when remote), and
   its data ready no earlier than the latest per-predecessor minimum
   arrival (finish plus the transfer time, zero when co-located).
   [evaluate] starts the execution at the processor timeline's earliest
   fit after the data is ready, and the fit is monotone in [ready], so the
   fit at the data floor floors the finish too. *)
let stage_floor s ~proc =
  let stg = ref 1 in
  for k = 0 to s.step.n_preds - 1 do
    if s.fl_off.(k + 1) > s.fl_off.(k) then begin
      let st = ref max_int in
      for i = s.fl_off.(k) to s.fl_off.(k + 1) - 1 do
        let rs = if s.fl_host.(i) = proc then s.fl_stage.(i) else s.fl_stage.(i) + 1 in
        if rs < !st then st := rs
      done;
      if !st > !stg then stg := !st
    end
  done;
  !stg

let finish_floor_above s ~proc =
  let ready = ref 0.0 in
  for k = 0 to s.step.n_preds - 1 do
    if s.fl_off.(k + 1) > s.fl_off.(k) then begin
      let f = ref infinity in
      for i = s.fl_off.(k) to s.fl_off.(k + 1) - 1 do
        let rf = s.fl_finish.(i) and rp = s.fl_host.(i) in
        if rp = proc then begin
          if rf < !f then f := rf
        end
        else begin
          let arr = rf +. comm_time s ~src:rp ~dst:proc s.vols.(k) in
          if arr < !f then f := arr
        end
      done;
      if !f > !ready then ready := !f
    end
  done;
  let exec = exec_time s proc and q = s.query in
  q.ready <- !ready;
  q.duration <- exec;
  Timeline.fit s.proc_tl.(proc) q;
  q.start +. exec > s.best.p_at.finish

(* Data from co-located sources is available at their finish time, and
   the pipeline stage is the max over sources of their stage, +1 for
   remote ones.  The transfers go sequentially on probes of the receive
   port and of the send ports of their sources, leaving the committed
   timelines untouched. *)
let evaluate s =
  let c = s.cand and q = s.query in
  let proc = c.p_proc in
  let data_ready = ref 0.0 and stg = ref 1 in
  let row = c.p_variant in
  for k = 0 to s.step.n_preds - 1 do
    for i = first s row k to last s row k do
      let sl = source_at s row k i in
      if s.proc_arr.(sl) = proc then begin
        data_ready := fmax !data_ready s.finish_arr.(sl);
        if s.stage_arr.(sl) > !stg then stg := s.stage_arr.(sl)
      end
      else if s.stage_arr.(sl) + 1 > !stg then stg := s.stage_arr.(sl) + 1
    done
  done;
  let recv_tl = s.recv_tl.(proc) and recv = s.recv_probe in
  Timeline.clear recv;
  for k = 0 to c.p_n - 1 do
    Timeline.clear s.send_probe.(c.p_src_proc.(k))
  done;
  for k = 0 to c.p_n - 1 do
    let sp = c.p_src_proc.(k) in
    let send_tl = s.send_tl.(sp) and send = s.send_probe.(sp) in
    q.ready <- s.finish_arr.(c.p_src.(k));
    q.duration <- c.p_dur.(k);
    Timeline.joint_fit send_tl send recv_tl recv q;
    Timeline.tentative recv_tl recv q;
    Timeline.tentative send_tl send q;
    c.p_comm_start.(k) <- q.start;
    data_ready := fmax !data_ready (q.start +. q.duration)
  done;
  let exec = exec_time s proc in
  q.ready <- !data_ready;
  q.duration <- exec;
  Timeline.fit s.proc_tl.(proc) q;
  c.p_at.start <- q.start;
  c.p_at.finish <- q.start +. exec;
  c.p_stage <- !stg

let commit s =
  let b = s.best in
  if b.p_proc < 0 then invalid_arg "State.commit: no incumbent";
  Obs.incr "core.commits";
  let st = s.step and proc = b.p_proc in
  let sources =
    List.init st.n_preds (fun k ->
        let row = b.p_variant in
        ( s.preds.(k),
          List.init
            (last s row k - first s row k + 1)
            (fun i -> id_of_slot s (source_at s row k (first s row k + i))) ))
  in
  Mapping.assign s.mapping
    { Replica.id = { Replica.task = b.p_task; copy = b.p_copy }; proc; sources };
  (* Charge through the Loads primitives in exactly the historical float
     order (Σ, then per transfer Cᴵ before Cᴼ): schedules are pinned
     bit-identical and float addition is order-sensitive. *)
  Loads.add_exec s.loads proc (exec_time s proc);
  for k = 0 to b.p_n - 1 do
    let sp = b.p_src_proc.(k) and dur = b.p_dur.(k) and start = b.p_comm_start.(k) in
    Loads.add_comm s.loads ~src:sp ~dst:proc dur;
    Timeline.insert s.recv_tl.(proc) ~start ~duration:dur;
    Timeline.insert s.send_tl.(sp) ~start ~duration:dur
  done;
  Timeline.insert s.proc_tl.(proc) ~start:b.p_at.start
    ~duration:(b.p_at.finish -. b.p_at.start);
  let k = (b.p_task * s.copies) + b.p_copy in
  s.finish_arr.(k) <- b.p_at.finish;
  s.stage_arr.(k) <- b.p_stage;
  s.proc_arr.(k) <- proc;
  s.support_arr.(k) <- support_of_sources s ~proc ~sources;
  b.p_proc <- -1
