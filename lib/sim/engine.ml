type snapshot = { clock : float }

type instance = { item : int; rep : Replica.id }

type message = {
  msg_src : instance;
  msg_dst : instance;
  msg_start : float;
  msg_finish : float;
}

(* What the fault machinery did during one run; [no_faults] when the
   scenario was Faults.none (the fast path records nothing). *)
type fault_stats = {
  retries : int;
  backoff_time : float;
  exec_faults : int;
  comm_faults : int;
  exhausted : int;
  exhausted_on : int array;
  slowed_attempts : int;
  degraded_transfers : int;
}

let no_faults =
  {
    retries = 0;
    backoff_time = 0.0;
    exec_faults = 0;
    comm_faults = 0;
    exhausted = 0;
    exhausted_on = [||];
    slowed_attempts = 0;
    degraded_transfers = 0;
  }

type result = {
  start_time : int -> Replica.id -> float option;
  finish_time : int -> Replica.id -> float option;
  item_latency : float option array;
  period : float;
  makespan : float;
  messages : message list;
  arrivals : float array;
  injections : float array;
  dropped : int;
  stalled : int;
  peak_queue : int;
  stall_time : float;
  faults : fault_stats;
}

(* ------------------------------------------------------------------ *)
(* Compiled programs                                                    *)
(* ------------------------------------------------------------------ *)

(* A program is the mapping + DAG flattened into dense int-indexed
   tables, built once and reused across runs (crash draws, resumed
   epochs).  Replicas get a dense id [rid = task * copies + copy]; an
   instance is the flat index [iidx = item * n_rids + rid], whose integer
   order is exactly the lexicographic ((item, task, copy)) order the
   legacy engine used for tie-breaks.  Everything in the record is
   immutable after [compile], so a program can be shared freely; per-run
   state lives entirely in the [Run_state] arena. *)
type program = {
  p_mapping : Mapping.t;
  p_tasks : int;
  p_copies : int;
  p_rids : int;  (* p_tasks * p_copies *)
  p_procs : int;
  p_topo : int array;  (* task order for the liveness sweep *)
  p_prio : float array;  (* per task: bottom level on averaged weights *)
  p_pred_count : int array;  (* per task *)
  p_pred_off : int array;  (* per rid: offset into the per-item sat slab *)
  p_total_preds : int;  (* slab stride: sum of pred counts over all rids *)
  p_proc : int array;  (* per rid *)
  p_exec_dur : float array;  (* per rid: execution time on its processor *)
  (* Source sets as CSR: rid -> groups (one per predecessor task) ->
     source rids.  Drives the per-run liveness (starvation) sweep. *)
  p_grp_off : int array;  (* length p_rids + 1 *)
  p_grp_src_off : int array;  (* length n_groups + 1 *)
  p_grp_src : int array;
  (* Consumers as CSR: rid -> (dst rid, transfer duration, position of
     the finishing task among the destination's predecessors). *)
  p_cons_off : int array;  (* length p_rids + 1 *)
  p_cons_dst : int array;
  p_cons_dur : float array;
  p_cons_pos : int array;
  p_entries : int array;
  p_exits : int array;
  p_period : float;  (* the mapping's achieved period (default period) *)
  p_graph : Replica_graph.t;
      (* the replica graph the tables above were built from; the event
         loop reads the flat fields, never this *)
}

let program_mapping p = p.p_mapping
let program_period p = p.p_period
let program_graph p = p.p_graph

let compile m =
  if not (Mapping.is_complete m) then
    invalid_arg "Engine.compile: incomplete mapping";
  Obs.incr "sim.compiles";
  let dag = Mapping.dag m and plat = Mapping.platform m in
  let copies = Mapping.n_copies m in
  let n_tasks = Dag.size dag and n_procs = Platform.size plat in
  let n_rids = n_tasks * copies in
  let prio = Levels.bottom dag (Metrics.paper_weights dag plat) in
  let pred_count = Array.init n_tasks (fun t -> List.length (Dag.preds dag t)) in
  let pred_off = Array.make (n_rids + 1) 0 in
  for rid = 0 to n_rids - 1 do
    pred_off.(rid + 1) <- pred_off.(rid) + pred_count.(rid / copies)
  done;
  (* Placement, topology and source groups come from the shared replica
     graph; execution durations and consumers are engine-specific. *)
  let g = Replica_graph.compile m in
  let proc_of = g.proc in
  let exec_dur =
    Array.init n_rids (fun rid ->
        Platform.exec_time plat proc_of.(rid) (Dag.exec dag (rid / copies)))
  in
  (* Consumers, in the legacy consumer-table encounter order: rid order
     (task, copy ascending), then source-group order, then source order
     within the group. *)
  let pred_pos task pred =
    let rec scan i = function
      | [] -> invalid_arg "Engine.compile: source is not a predecessor"
      | (q, _) :: rest -> if q = pred then i else scan (i + 1) rest
    in
    scan 0 (Dag.preds dag task)
  in
  let n_srcs = g.src_off.(g.grp_off.(n_rids)) in
  let cons_off = Array.make (n_rids + 1) 0 in
  for k = 0 to n_srcs - 1 do
    cons_off.(g.src.(k) + 1) <- cons_off.(g.src.(k) + 1) + 1
  done;
  for rid = 0 to n_rids - 1 do
    cons_off.(rid + 1) <- cons_off.(rid) + cons_off.(rid + 1)
  done;
  let cons_dst = Array.make (max 1 n_srcs) 0 in
  let cons_dur = Array.make (max 1 n_srcs) 0.0 in
  let cons_pos = Array.make (max 1 n_srcs) 0 in
  let cursor = Array.sub cons_off 0 n_rids in
  for dst_rid = 0 to n_rids - 1 do
    let task = dst_rid / copies and dp = proc_of.(dst_rid) in
    for gi = g.grp_off.(dst_rid) to g.grp_off.(dst_rid + 1) - 1 do
      (* [Mapping.assign] keeps every group non-empty and made of
         replicas of its one predecessor *)
      let pred = g.src.(g.src_off.(gi)) / copies in
      let vol = Dag.volume dag pred task and pos = pred_pos task pred in
      for k = g.src_off.(gi) to g.src_off.(gi + 1) - 1 do
        let srid = g.src.(k) in
        let c = cursor.(srid) in
        cons_dst.(c) <- dst_rid;
        cons_pos.(c) <- pos;
        cons_dur.(c) <-
          (if g.eta.(k) = 0 then 0.0
           else Platform.comm_time plat proc_of.(srid) dp vol);
        cursor.(srid) <- c + 1
      done
    done
  done;
  {
    p_mapping = m;
    p_tasks = n_tasks;
    p_copies = copies;
    p_rids = n_rids;
    p_procs = n_procs;
    p_topo = g.topo;
    p_prio = prio;
    p_pred_count = pred_count;
    p_pred_off = pred_off;
    p_total_preds = pred_off.(n_rids);
    p_proc = proc_of;
    p_exec_dur = exec_dur;
    p_grp_off = g.grp_off;
    p_grp_src_off = g.src_off;
    p_grp_src = g.src;
    p_cons_off = cons_off;
    p_cons_dst = cons_dst;
    p_cons_dur = cons_dur;
    p_cons_pos = cons_pos;
    p_entries = Array.of_list (Dag.entries dag);
    p_exits = g.exits;
    p_period = Metrics.period m;
    p_graph = g;
  }

(* ------------------------------------------------------------------ *)
(* The run-scenario record                                              *)
(* ------------------------------------------------------------------ *)

module Run = struct
  type drop_policy = Block | Drop_newest

  type traffic =
    | Closed of { n_items : int; period : float option }
    | Open of {
        arrival : Arrival.t;
        n_items : int;
        rng : Rng.t option;
        queue_bound : int option;
        policy : drop_policy;
      }

  type config = {
    traffic : traffic;
    snapshot : snapshot option;
    failed : Platform.proc list;
    timed_failures : (Platform.proc * float) list;
    record_messages : bool;
    faults : Faults.t;
  }

  let of_traffic traffic =
    {
      traffic;
      snapshot = None;
      failed = [];
      timed_failures = [];
      record_messages = true;
      faults = Faults.none;
    }

  let closed ?(n_items = 1) ?period () = of_traffic (Closed { n_items; period })

  let open_ ?queue_bound ?(policy = Block) ?rng ~n_items arrival =
    of_traffic (Open { arrival; n_items; rng; queue_bound; policy })

  let with_faults faults config = { config with faults }
  let without_messages config = { config with record_messages = false }
end

(* ------------------------------------------------------------------ *)
(* The event engine over a compiled program                             *)
(* ------------------------------------------------------------------ *)

(* A transfer waiting for its data and for both ports lives in the run
   arena's message pool — parallel arrays (structure-of-arrays, so the
   float fields are stored unboxed) indexed by a pool handle.  Handles
   are issued in creation order, so the handle doubles as the legacy
   insertion sequence number: the legacy engine kept pending messages in
   a most-recent-first list and its fold kept the incumbent on full
   ties, so among equal (destination priority, destination instance)
   candidates the most recently created message — the highest handle —
   commits first.

   Events are packed into one immediate int, [(arg lsl 3) lor kind], so
   the event heap stores no pointers and the loop allocates nothing per
   event. *)

let ev_inject = 0 (* arg: iidx — a backed-off execution retry becomes ready *)
let ev_arrive = 1 (* arg: item — an item reaches the source *)
let ev_finish = 2 (* arg: iidx *)

let ev_arrival = 3
(* arg: message handle; the commit-time start is in [rs_pm_commit] *)

let ev_port_free = 4
(* wake-up when a crash-lost transfer releases its ports: the transfer
   never arrives, but other pending messages must get a chance to claim
   the port *)

let ev_exec_failed = 5
(* arg: iidx — a transient execution fault surfaces after the full
   attempt duration (the timeout): the processor frees, the instance is
   re-driven after the backoff or abandoned *)

let ev_comm_failed = 6
(* arg: message handle — a transient transfer fault surfaces at the
   transfer's end: both ports were held for the whole failed attempt *)

let ev_requeue = 7
(* arg: message handle — a backed-off transfer re-enters the pending
   set *)

(* Named slots of [Run_state.rs_f], the run's float scalars.  They share
   one float array because its stores are unboxed, where a mutable float
   field of the (mixed) arena record would box on every store.
   [slot_key] must be 0: [Event_heap.add] reads the key from slot 0. *)
let slot_key = 0 (* the time the next [schedule] files its event at *)
let slot_now = 1 (* the loop's current time *)
let slot_makespan = 2
let slot_stall = 3 (* total backpressure wait of admitted items *)
let slot_backoff = 4 (* total retry backoff inserted *)
let slot_next_fail = 5 (* the next timed-failure instant after now *)
let slot_clock = 6 (* the snapshot clock the run starts at *)
let slot_period = 7 (* the period the result reports *)

(* ------------------------------------------------------------------ *)
(* The reusable run-state arena                                         *)
(* ------------------------------------------------------------------ *)

(* Everything one run reads or writes besides the immutable program:
   array slabs, owned by the caller so a draw loop (crash sampling,
   epochs, traffic sweeps) allocates them once and replays thousands of
   scenarios with zero per-draw slab allocation, plus the run's resolved
   scenario, counters and float scalars.  Per-processor and per-replica
   slabs are sized at [create]; the per-(item, replica) slabs grow
   geometrically on demand, since the item count varies run to run.
   [start] re-initializes every range the run uses and every scalar, so a
   reused arena is bit-identical to a fresh one. *)
module Run_state = struct
  type t = {
    rs_rids : int;
    rs_procs : int;
    rs_total_preds : int;
    (* per-processor slabs *)
    rs_fail_time : float array;
    rs_busy_until : float array;
    rs_running : bool array;
    rs_send_free : float array;
    rs_recv_free : float array;
    rs_ready_data : int array array;
    rs_ready_len : int array;
    rs_pend_data : int array array;
    rs_pend_len : int array;
    (* dispatch worklists: the processors touched since the last
       [dispatch_procs] (deduplicated by [rs_touched]) and the send ports
       with pending transfers ([rs_port_at.(u)] is u's slot in
       [rs_ports]) *)
    rs_touched : bool array;
    rs_touch_list : int array;
    rs_ports : int array;
    rs_port_at : int array;
    (* per-replica slabs *)
    rs_dead : bool array;
    rs_occ : int array;
    (* message pool (structure-of-arrays), grown on demand; every run
       writes a slot before reading it, and the slots hold no pointers,
       so only its length is reset *)
    mutable rs_pm_src : int array;
    mutable rs_pm_dst : int array;
    mutable rs_pm_dst_rid : int array;
    mutable rs_pm_dp : int array;
    mutable rs_pm_dur : float array;
    mutable rs_pm_pos : int array;
    mutable rs_pm_alive : bool array;
    mutable rs_pm_attempt : int array;
    mutable rs_pm_commit : float array;
    (* per-(item, replica) slabs, grown on demand *)
    mutable rs_starts : float array;
    mutable rs_finishes : float array;
    mutable rs_unsatisfied : int array;
    mutable rs_attempts : int array;
    mutable rs_charged : Bytes.t;
    mutable rs_sat : Bytes.t;
    (* event queue, message log (newest first), deferred local
       deliveries *)
    rs_events : Event_heap.t;
    mutable rs_log : message list;
    mutable rs_dl_dst : int array;
    mutable rs_dl_pos : int array;
    (* the run's float scalars, by [slot_*] *)
    rs_f : float array;
    (* the run's resolved scenario *)
    mutable rs_bound : int;  (* max_int = unbounded *)
    mutable rs_shed : bool;  (* Drop_newest *)
    mutable rs_fz : bool;  (* Faults.none: no fault-model touch point runs *)
    mutable rs_no_gray : bool;
        (* no straggler or link window either: skips the gray-factor
           lookups, and the boxed clock each would take *)
    mutable rs_obs : bool;  (* Obs.enabled (), read once per run *)
    mutable rs_record : bool;  (* record_messages *)
    mutable rs_faults : Faults.t;
    (* per-run arrays the result returns, so fresh every run *)
    mutable rs_arr_abs : float array;
    mutable rs_injections : float array;
    mutable rs_exhausted_on : int array;
    (* the run's cursors and counters *)
    mutable rs_n_touched : int;
    mutable rs_n_ports : int;
    mutable rs_pm_len : int;
    mutable rs_dl_len : int;
    mutable rs_msg_dirty : bool;
    mutable rs_next_admit : int;
    mutable rs_arrived : int;
    mutable rs_dropped : int;
    mutable rs_peak_queue : int;
    mutable rs_f_retries : int;
    mutable rs_f_exec : int;
    mutable rs_f_comm : int;
    mutable rs_f_exhausted : int;
    mutable rs_f_slowed : int;
    mutable rs_f_degraded : int;
  }

  let create p =
    Obs.incr "sim.arena.creates";
    let procs = p.p_procs and rids = p.p_rids in
    {
      rs_rids = rids;
      rs_procs = procs;
      rs_total_preds = p.p_total_preds;
      rs_fail_time = Array.make procs infinity;
      rs_busy_until = Array.make procs 0.0;
      rs_running = Array.make procs false;
      rs_send_free = Array.make procs 0.0;
      rs_recv_free = Array.make procs 0.0;
      rs_ready_data = Array.make procs [||];
      rs_ready_len = Array.make procs 0;
      rs_pend_data = Array.make procs [||];
      rs_pend_len = Array.make procs 0;
      rs_touched = Array.make procs false;
      rs_touch_list = Array.make procs 0;
      rs_ports = Array.make procs 0;
      rs_port_at = Array.make procs 0;
      rs_dead = Array.make rids true;
      rs_occ = Array.make rids 0;
      rs_pm_src = [||];
      rs_pm_dst = [||];
      rs_pm_dst_rid = [||];
      rs_pm_dp = [||];
      rs_pm_dur = [||];
      rs_pm_pos = [||];
      rs_pm_alive = [||];
      rs_pm_attempt = [||];
      rs_pm_commit = [||];
      rs_starts = Array.make (max 1 rids) nan;
      rs_finishes = Array.make (max 1 rids) nan;
      rs_unsatisfied = Array.make (max 1 rids) 0;
      rs_attempts = Array.make (max 1 rids) 0;
      rs_charged = Bytes.make (max 1 rids) '\000';
      rs_sat = Bytes.make (max 1 p.p_total_preds) '\000';
      rs_events = Event_heap.create ();
      rs_log = [];
      rs_dl_dst = [||];
      rs_dl_pos = [||];
      rs_f = Array.make 8 0.0;
      rs_bound = max_int;
      rs_shed = false;
      rs_fz = true;
      rs_no_gray = true;
      rs_obs = false;
      rs_record = true;
      rs_faults = Faults.none;
      rs_arr_abs = [||];
      rs_injections = [||];
      rs_exhausted_on = [||];
      rs_n_touched = 0;
      rs_n_ports = 0;
      rs_pm_len = 0;
      rs_dl_len = 0;
      rs_msg_dirty = false;
      rs_next_admit = 0;
      rs_arrived = 0;
      rs_dropped = 0;
      rs_peak_queue = 0;
      rs_f_retries = 0;
      rs_f_exec = 0;
      rs_f_comm = 0;
      rs_f_exhausted = 0;
      rs_f_slowed = 0;
      rs_f_degraded = 0;
    }

  (* Static liveness, in topological order: a replica is dead when its
     processor failed at or before the clock, or when, for some
     predecessor, every source is dead. *)
  let liveness st p =
    let dead = st.rs_dead and copies = p.p_copies and clock = st.rs_f.(slot_clock) in
    Array.fill dead 0 p.p_rids true;
    for i = 0 to Array.length p.p_topo - 1 do
      let task = p.p_topo.(i) in
      for copy = 0 to copies - 1 do
        let rid = (task * copies) + copy in
        let u = p.p_proc.(rid) in
        if u >= 0 && st.rs_fail_time.(u) > clock then begin
          let starved = ref false in
          let g = ref p.p_grp_off.(rid) in
          let g_end = p.p_grp_off.(rid + 1) in
          while (not !starved) && !g < g_end do
            let all_dead = ref true in
            let s = ref p.p_grp_src_off.(!g) in
            let s_end = p.p_grp_src_off.(!g + 1) in
            while !all_dead && !s < s_end do
              if not dead.(p.p_grp_src.(!s)) then all_dead := false;
              incr s
            done;
            if !all_dead then starved := true;
            incr g
          done;
          dead.(rid) <- !starved
        end
      done
    done

  (* Make the arena ready for one validated run: grow the item-dependent
     slabs, resolve the scenario into flags, reset every counter and
     float slot, and re-initialize every slab range the run reads before
     writing.  Fault-free runs never read [rs_attempts], so it is reset
     only when used. *)
  let start st p ~clock ~period ~offsets ~queue_bound ~policy ~failed
      ~timed_failures ~record_messages ~faults =
    let n_procs = p.p_procs and n_rids = p.p_rids in
    let n_items = Array.length offsets in
    let total = n_items * n_rids and sat_len = n_items * p.p_total_preds in
    if Array.length st.rs_starts < total then begin
      let cap = max total (2 * Array.length st.rs_starts) in
      st.rs_starts <- Array.make cap nan;
      st.rs_finishes <- Array.make cap nan;
      st.rs_unsatisfied <- Array.make cap 0;
      st.rs_attempts <- Array.make cap 0;
      st.rs_charged <- Bytes.make cap '\000'
    end;
    if Bytes.length st.rs_sat < sat_len then
      st.rs_sat <- Bytes.make (max sat_len (2 * Bytes.length st.rs_sat)) '\000';
    (* Under Faults.none the run takes exactly the legacy code path — no
       draws, no factor multiplies, no extra allocations. *)
    let fz = Faults.is_none faults in
    st.rs_bound <- Option.value queue_bound ~default:max_int;
    st.rs_shed <- policy = Run.Drop_newest;
    (* [offsets] is the run's own fresh array: shift it in place onto the
       absolute time axis, where it becomes the result's [arrivals]. *)
    for item = 0 to n_items - 1 do
      offsets.(item) <- clock +. offsets.(item)
    done;
    st.rs_arr_abs <- offsets;
    st.rs_fz <- fz;
    st.rs_no_gray <- fz || Faults.Gray.is_none faults.Faults.gray;
    st.rs_obs <- Obs.enabled ();
    st.rs_record <- record_messages;
    st.rs_faults <- faults;
    st.rs_injections <- Array.make n_items nan;
    st.rs_exhausted_on <- (if fz then [||] else Array.make n_procs 0);
    st.rs_n_touched <- 0;
    st.rs_n_ports <- 0;
    st.rs_pm_len <- 0;
    st.rs_log <- [];
    st.rs_dl_len <- 0;
    st.rs_msg_dirty <- false;
    st.rs_next_admit <- 0;
    st.rs_arrived <- 0;
    st.rs_dropped <- 0;
    st.rs_peak_queue <- 0;
    st.rs_f_retries <- 0;
    st.rs_f_exec <- 0;
    st.rs_f_comm <- 0;
    st.rs_f_exhausted <- 0;
    st.rs_f_slowed <- 0;
    st.rs_f_degraded <- 0;
    let f = st.rs_f in
    f.(slot_now) <- clock;
    f.(slot_makespan) <- clock;
    f.(slot_stall) <- 0.0;
    f.(slot_backoff) <- 0.0;
    f.(slot_next_fail) <- infinity;
    f.(slot_clock) <- clock;
    f.(slot_period) <- period;
    (* fail_time.(u) is when the processor crashes (fail-stop): work and
       transfers completing strictly later are lost.  A crash at or
       before the clock is the paper's fail-silent-from-the-start case
       and also prunes replicas statically. *)
    let fail_time = st.rs_fail_time in
    Array.fill fail_time 0 n_procs infinity;
    List.iter (fun u -> fail_time.(u) <- 0.0) failed;
    List.iter (fun (u, t) -> fail_time.(u) <- Float.min fail_time.(u) t) timed_failures;
    liveness st p;
    (* Per-instance state, iidx = item * n_rids + rid; [rs_sat] marks the
       satisfied predecessor positions, one byte per (item, rid,
       position). *)
    if not fz then Array.fill st.rs_attempts 0 total 0;
    Array.fill st.rs_starts 0 total nan;
    Array.fill st.rs_finishes 0 total nan;
    for item = 0 to n_items - 1 do
      for rid = 0 to n_rids - 1 do
        st.rs_unsatisfied.((item * n_rids) + rid) <-
          (if st.rs_dead.(rid) then 0 else p.p_pred_count.(rid / p.p_copies))
      done
    done;
    Bytes.fill st.rs_sat 0 sat_len '\000';
    (* Processor, port and queue state. *)
    Array.fill st.rs_busy_until 0 n_procs 0.0;
    Array.fill st.rs_running 0 n_procs false;
    Array.fill st.rs_send_free 0 n_procs 0.0;
    Array.fill st.rs_recv_free 0 n_procs 0.0;
    Array.fill st.rs_ready_len 0 n_procs 0;
    Array.fill st.rs_touched 0 n_procs false;
    Array.fill st.rs_pend_len 0 n_procs 0;
    Array.fill st.rs_occ 0 n_rids 0;
    Bytes.fill st.rs_charged 0 total '\000';
    Event_heap.clear st.rs_events
end

open Run_state

(* ------------------------------------------------------------------ *)
(* Worklists, ready heaps and the message pool                          *)
(* ------------------------------------------------------------------ *)

(* File event [ev] at the time in [slot_key]. *)
let schedule st ev =
  Event_heap.add st.rs_events st.rs_f ev;
  if st.rs_obs then
    Obs.observe "sim.heap_size" (float_of_int (Event_heap.size st.rs_events))

(* A copy of [a]'s first [len] elements with room for at least [min] and
   twice [len]: the growth step of every on-demand pool below. *)
let grown a len ~min zero =
  let d = Array.make (max min (2 * len)) zero in
  Array.blit a 0 d 0 len;
  d

let bump_makespan st =
  let f = st.rs_f in
  if f.(slot_now) > f.(slot_makespan) then f.(slot_makespan) <- f.(slot_now)

(* Mark [u] as possibly startable: an idle processor becomes startable
   only when its ready heap gains an instance or when it frees, and both
   touch it. *)
let touch st u =
  if not st.rs_touched.(u) then begin
    st.rs_touched.(u) <- true;
    st.rs_touch_list.(st.rs_n_touched) <- u;
    st.rs_n_touched <- st.rs_n_touched + 1
  end

(* Ready instances, one binary heap per processor.  The heap order is
   the legacy [better] relation — item ascending, then task priority
   descending, then replica id ascending — which is a strict total order
   on any one processor's ready set (two instances there always differ in
   item or task), so popping the root picks exactly the instance the
   legacy list fold selected. *)
let inst_before p a b =
  let n_rids = p.p_rids in
  let ia = a / n_rids and ib = b / n_rids in
  if ia <> ib then ia < ib
  else begin
    let ra = a mod n_rids and rb = b mod n_rids in
    let pa = p.p_prio.(ra / p.p_copies) and pb = p.p_prio.(rb / p.p_copies) in
    if pa <> pb then pa > pb else ra < rb
  end

let ready_push st p u x =
  touch st u;
  let len = st.rs_ready_len.(u) in
  if len = Array.length st.rs_ready_data.(u) then
    st.rs_ready_data.(u) <- grown st.rs_ready_data.(u) len ~min:8 0;
  let d = st.rs_ready_data.(u) in
  st.rs_ready_len.(u) <- len + 1;
  let i = ref len in
  while !i > 0 && inst_before p x d.((!i - 1) / 2) do
    d.(!i) <- d.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  d.(!i) <- x

let ready_pop st p u =
  let d = st.rs_ready_data.(u) in
  let len = st.rs_ready_len.(u) - 1 in
  let top = d.(0) and x = d.(len) in
  st.rs_ready_len.(u) <- len;
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < len && inst_before p d.(l + 1) d.(l) then l + 1 else l in
    if c < len && inst_before p d.(c) x then begin
      d.(!i) <- d.(c);
      i := c
    end
    else sifting := false
  done;
  d.(!i) <- x;
  top

(* A fresh message-pool handle.  Handles are issued in creation order,
   which is exactly the legacy [pm_seq] numbering (one message created
   per cross-processor hand-off, and a requeued message keeps its
   handle). *)
let pm_alloc st =
  let len = st.rs_pm_len in
  if len = Array.length st.rs_pm_src then begin
    let grow a zero = grown a len ~min:16 zero in
    st.rs_pm_src <- grow st.rs_pm_src 0;
    st.rs_pm_dst <- grow st.rs_pm_dst 0;
    st.rs_pm_dst_rid <- grow st.rs_pm_dst_rid 0;
    st.rs_pm_dp <- grow st.rs_pm_dp 0;
    st.rs_pm_pos <- grow st.rs_pm_pos 0;
    st.rs_pm_attempt <- grow st.rs_pm_attempt 0;
    st.rs_pm_dur <- grow st.rs_pm_dur 0.0;
    st.rs_pm_commit <- grow st.rs_pm_commit 0.0;
    st.rs_pm_alive <- grow st.rs_pm_alive false
  end;
  st.rs_pm_len <- len + 1;
  len

(* Pending transfers, bucketed by sending processor (the send port they
   wait on); index-based removal, so structurally identical messages are
   distinct entries.  [rs_ports] lists the send ports with a nonempty
   bucket; [rs_port_at] is written when a port enters the list, before
   any read. *)
let pend_push st u mi =
  let len = st.rs_pend_len.(u) in
  if len = Array.length st.rs_pend_data.(u) then
    st.rs_pend_data.(u) <- grown st.rs_pend_data.(u) len ~min:4 0;
  st.rs_pend_data.(u).(len) <- mi;
  st.rs_pend_len.(u) <- len + 1;
  if len = 0 then begin
    st.rs_port_at.(u) <- st.rs_n_ports;
    st.rs_ports.(st.rs_n_ports) <- u;
    st.rs_n_ports <- st.rs_n_ports + 1
  end;
  st.rs_msg_dirty <- true

let pend_remove st u i =
  let len = st.rs_pend_len.(u) - 1 in
  st.rs_pend_data.(u).(i) <- st.rs_pend_data.(u).(len);
  st.rs_pend_len.(u) <- len;
  if len = 0 then begin
    let last = st.rs_n_ports - 1 in
    let v = st.rs_ports.(last) and k = st.rs_port_at.(u) in
    st.rs_ports.(k) <- v;
    st.rs_port_at.(v) <- k;
    st.rs_n_ports <- last
  end

(* Predecessor [pos] of instance [iidx] has delivered; the last one makes
   the instance ready. *)
let satisfy st p iidx pos =
  let n_rids = p.p_rids in
  let item = iidx / n_rids and rid = iidx mod n_rids in
  let si = (item * p.p_total_preds) + p.p_pred_off.(rid) + pos in
  if Bytes.get st.rs_sat si = '\000' then begin
    Bytes.set st.rs_sat si '\001';
    let u = st.rs_unsatisfied.(iidx) - 1 in
    st.rs_unsatisfied.(iidx) <- u;
    if u = 0 then ready_push st p p.p_proc.(rid) iidx
  end

(* ------------------------------------------------------------------ *)
(* Admission: queues, source backlog, shedding                         *)
(* ------------------------------------------------------------------ *)

(* An instance occupies its replica's bounded input queue from the
   moment data is first committed toward it (for an entry task: from
   admission) until it finishes executing.  [rs_charged] marks the
   charge; the charge is skipped when the replica's processor is already
   dead at charge time (no queue survives a crash), and an instance that
   finishes always had a live-processor charge, so the release in
   [on_finish] never underflows.  These helpers read the clock from
   [slot_now] rather than taking a [float] argument, which would be boxed
   at every call. *)
let charge st p iidx =
  if Bytes.get st.rs_charged iidx = '\000' then begin
    Bytes.set st.rs_charged iidx '\001';
    st.rs_msg_dirty <- true;
    let rid = iidx mod p.p_rids in
    if st.rs_fail_time.(p.p_proc.(rid)) > st.rs_f.(slot_now) then begin
      let o = st.rs_occ.(rid) + 1 in
      st.rs_occ.(rid) <- o;
      if o > st.rs_peak_queue then st.rs_peak_queue <- o;
      if st.rs_obs then begin
        Obs.incr "sim.queue.enqueued";
        Obs.observe "sim.queue.occupancy" (float_of_int o)
      end
    end
  end

let has_room st p rid =
  st.rs_fail_time.(p.p_proc.(rid)) <= st.rs_f.(slot_now)
  || st.rs_occ.(rid) < st.rs_bound

(* Deferred local deliveries: a finished instance's same-processor
   hand-off that found the destination queue full waits here, oldest
   first, and is retried whenever occupancy may have freed. *)
let dl_push st dst pos =
  let len = st.rs_dl_len in
  if len = Array.length st.rs_dl_dst then begin
    st.rs_dl_dst <- grown st.rs_dl_dst len ~min:8 0;
    st.rs_dl_pos <- grown st.rs_dl_pos len ~min:8 0
  end;
  st.rs_dl_dst.(len) <- dst;
  st.rs_dl_pos.(len) <- pos;
  st.rs_dl_len <- len + 1;
  if st.rs_obs then Obs.incr "sim.queue.blocked"

let dispatch_local st p =
  if st.rs_dl_len > 0 then begin
    let dl_dst = st.rs_dl_dst and dl_pos = st.rs_dl_pos in
    let w = ref 0 in
    for i = 0 to st.rs_dl_len - 1 do
      let dst = dl_dst.(i) and pos = dl_pos.(i) in
      if Bytes.get st.rs_charged dst = '\001' || has_room st p (dst mod p.p_rids)
      then begin
        charge st p dst;
        satisfy st p dst pos
      end
      else begin
        dl_dst.(!w) <- dst;
        dl_pos.(!w) <- pos;
        incr w
      end
    done;
    st.rs_dl_len <- !w
  end

(* Admission: every live entry replica must have queue room; a dead or
   crashed one imposes nothing (its shard is gone). *)
let entry_room st p =
  st.rs_bound = max_int
  ||
  let entries = p.p_entries and copies = p.p_copies in
  let ok = ref true and e = ref 0 in
  while !ok && !e < Array.length entries do
    for copy = 0 to copies - 1 do
      let rid = (entries.(!e) * copies) + copy in
      if (not st.rs_dead.(rid)) && not (has_room st p rid) then ok := false
    done;
    incr e
  done;
  !ok

(* Admitting makes the item's entry instances ready and charges their
   queues. *)
let admit st p item =
  let now = st.rs_f.(slot_now) in
  st.rs_injections.(item) <- now;
  st.rs_f.(slot_stall) <- st.rs_f.(slot_stall) +. (now -. st.rs_arr_abs.(item));
  let entries = p.p_entries and copies = p.p_copies in
  for e = 0 to Array.length entries - 1 do
    for copy = 0 to copies - 1 do
      let rid = (entries.(e) * copies) + copy in
      if not st.rs_dead.(rid) then begin
        let iidx = (item * p.p_rids) + rid in
        charge st p iidx;
        ready_push st p p.p_proc.(rid) iidx
      end
    done
  done

(* Admit as many backlogged items as fit, FIFO: the head of the line
   blocks the line (that is what backpressure means at the source). *)
let rec dispatch_source st p =
  if st.rs_next_admit < st.rs_arrived && entry_room st p then begin
    let item = st.rs_next_admit in
    st.rs_next_admit <- item + 1;
    admit st p item;
    dispatch_source st p
  end

(* ------------------------------------------------------------------ *)
(* Dispatch: processors and transfers                                   *)
(* ------------------------------------------------------------------ *)

(* Start the best ready instance on idle processor [u] at [now]. *)
let start_exec st p u =
  let now = st.rs_f.(slot_now) in
  let iidx = ready_pop st p u in
  let dur = p.p_exec_dur.(iidx mod p.p_rids) in
  (* Gray straggler: the factor active at the attempt's start stretches
     the whole attempt. *)
  let dur =
    if st.rs_no_gray then dur
    else begin
      let f = Faults.Gray.exec_factor st.rs_faults.Faults.gray ~proc:u ~at:now in
      if f = 1.0 then dur
      else begin
        st.rs_f_slowed <- st.rs_f_slowed + 1;
        if st.rs_obs then Obs.incr "sim.gray.slowdowns";
        dur *. f
      end
    end
  in
  st.rs_starts.(iidx) <- now;
  st.rs_running.(u) <- true;
  st.rs_busy_until.(u) <- now +. dur;
  if now +. dur <= st.rs_fail_time.(u) then begin
    (* Transient execution fault: decided at dispatch, surfaced only when
       the full attempt duration has elapsed (the timeout) — the
       processor is busy for the whole attempt either way. *)
    let failing =
      (not st.rs_fz)
      && begin
           let a = st.rs_attempts.(iidx) + 1 in
           st.rs_attempts.(iidx) <- a;
           Faults.Transient.exec_fails st.rs_faults.Faults.transient ~proc:u
             ~key:iidx ~attempt:a ~at:now
         end
    in
    st.rs_f.(slot_key) <- now +. dur;
    schedule st ((iidx lsl 3) lor (if failing then ev_exec_failed else ev_finish))
  end
(* else: the crash interrupts this execution; the processor never frees
   and the result is lost *)

(* Start the best ready instance on every touched processor that is idle
   and alive, in ascending processor order — the order a full sweep would
   visit them, so the finish events get the same insertion numbers.  An
   untouched processor cannot start: it was left unstartable by the
   previous dispatch and nothing has changed for it since.  Starting
   touches nobody, so the worklist is stable while it is visited.
   Sorting k touches (k <= m) takes at most k·m steps; the full sweep
   took m after every event. *)
let dispatch_procs st p =
  let now = st.rs_f.(slot_now) in
  let touch_list = st.rs_touch_list in
  let k = st.rs_n_touched in
  st.rs_n_touched <- 0;
  for i = 1 to k - 1 do
    let u = touch_list.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && touch_list.(!j) > u do
      touch_list.(!j + 1) <- touch_list.(!j);
      decr j
    done;
    touch_list.(!j + 1) <- u
  done;
  for i = 0 to k - 1 do
    let u = touch_list.(i) in
    st.rs_touched.(u) <- false;
    if
      (not st.rs_running.(u))
      && st.rs_busy_until.(u) <= now
      && st.rs_ready_len.(u) > 0
      && now < st.rs_fail_time.(u)
    then start_exec st p u
  done

(* Whether a pending transfer may claim the destination's queue: a dead
   destination has no queue, an already-queued instance must keep
   receiving (or the pipeline would deadlock on its own bound), and
   otherwise the queue needs room. *)
let msg_room st mi =
  (not st.rs_pm_alive.(mi))
  || st.rs_fail_time.(st.rs_pm_dp.(mi)) <= st.rs_f.(slot_now)
  || Bytes.get st.rs_charged st.rs_pm_dst.(mi) = '\001'
  || st.rs_occ.(st.rs_pm_dst_rid.(mi)) < st.rs_bound

(* Commit transfer [mi], entry [i] of send port [sp]'s bucket: occupy
   both ports and file its arrival, failure or port-free event. *)
let commit_transfer st p sp i mi =
  let now = st.rs_f.(slot_now) in
  pend_remove st sp i;
  let dp = st.rs_pm_dp.(mi) in
  (* Gray link degradation: the factor active at commit time stretches
     the whole transfer on both ports. *)
  let dur =
    if st.rs_no_gray then st.rs_pm_dur.(mi)
    else begin
      let f =
        Faults.Gray.comm_factor st.rs_faults.Faults.gray ~src:sp ~dst:dp ~at:now
      in
      if f = 1.0 then st.rs_pm_dur.(mi)
      else begin
        st.rs_f_degraded <- st.rs_f_degraded + 1;
        if st.rs_obs then Obs.incr "sim.gray.degradations";
        st.rs_pm_dur.(mi) *. f
      end
    end
  in
  let fail_time = st.rs_fail_time in
  st.rs_send_free.(sp) <- now +. dur;
  if fail_time.(dp) > now then st.rs_recv_free.(dp) <- now +. dur;
  st.rs_f.(slot_key) <- now +. dur;
  if now +. dur <= fail_time.(sp) && now +. dur <= fail_time.(dp) then begin
    (* Transient transfer fault: decided at commit, surfaced when the full
       transfer duration has elapsed (the timeout) — the ports are held
       for the whole attempt either way. *)
    let failing =
      (not st.rs_fz)
      && Faults.Transient.comm_fails st.rs_faults.Faults.transient ~src:sp
           ~key:mi ~attempt:st.rs_pm_attempt.(mi) ~at:now
    in
    if failing then schedule st ((mi lsl 3) lor ev_comm_failed)
    else begin
      (* The transfer will arrive: reserve the destination's queue slot
         now, so concurrent senders see the occupancy. *)
      if st.rs_pm_alive.(mi) then charge st p st.rs_pm_dst.(mi);
      st.rs_pm_commit.(mi) <- now;
      schedule st ((mi lsl 3) lor ev_arrival)
    end
  end
  else
    (* the crash loses the transfer in flight, but the ports still free
       up and waiting messages must be woken *)
    schedule st ev_port_free

(* Greedily commit every transfer whose data and both ports are free.
   The candidate order is the legacy one: highest destination priority,
   then smallest destination instance, then (on full ties) the most
   recently created message — the highest pool handle.  That order is
   strict (handles are unique), so the winner does not depend on the
   order [rs_ports] is scanned in.  Clears [rs_msg_dirty] once nothing is
   committable. *)
let rec dispatch_msgs st p =
  let now = st.rs_f.(slot_now) in
  let fail_time = st.rs_fail_time and prio = p.p_prio and copies = p.p_copies in
  let check_room = st.rs_bound <> max_int in
  let best = ref (-1) in
  let best_u = ref (-1) and best_i = ref (-1) in
  for k = 0 to st.rs_n_ports - 1 do
    let u = st.rs_ports.(k) in
    if now < fail_time.(u) && st.rs_send_free.(u) <= now then
      for i = 0 to st.rs_pend_len.(u) - 1 do
        let mi = st.rs_pend_data.(u).(i) in
        let dp = st.rs_pm_dp.(mi) in
        if
          (fail_time.(dp) <= now || st.rs_recv_free.(dp) <= now)
          && ((not check_room) || msg_room st mi)
        then begin
          let beats =
            let b = !best in
            b < 0
            ||
            let pm = prio.(st.rs_pm_dst_rid.(mi) / copies)
            and pb = prio.(st.rs_pm_dst_rid.(b) / copies) in
            pm > pb
            || (pm = pb
               && (st.rs_pm_dst.(mi) < st.rs_pm_dst.(b)
                  || (st.rs_pm_dst.(mi) = st.rs_pm_dst.(b) && mi > b)))
          in
          if beats then begin
            best := mi;
            best_u := u;
            best_i := i
          end
        end
      done
  done;
  if !best >= 0 then begin
    commit_transfer st p !best_u !best_i !best;
    dispatch_msgs st p
  end
  else st.rs_msg_dirty <- false

(* Seed the source: one Arrive per item at its arrival instant —
   admission happens when the event pops (and, under backpressure, when
   room frees). *)
let seed_source st =
  let f = st.rs_f in
  for item = 0 to Array.length st.rs_arr_abs - 1 do
    f.(slot_key) <- st.rs_arr_abs.(item);
    schedule st ((item lsl 3) lor ev_arrive)
  done

(* ------------------------------------------------------------------ *)
(* Events                                                               *)
(* ------------------------------------------------------------------ *)

(* Item [item] reaches the source. *)
let on_arrive st p item =
  st.rs_arrived <- st.rs_arrived + 1;
  if st.rs_shed then begin
    (* Load shedding decides at the arrival instant: admit or drop, never
       defer — the backlog stays empty. *)
    st.rs_next_admit <- st.rs_next_admit + 1;
    if entry_room st p then admit st p item
    else begin
      st.rs_dropped <- st.rs_dropped + 1;
      if st.rs_obs then Obs.incr "sim.drops"
    end
  end
  else begin
    let before = st.rs_next_admit in
    dispatch_source st p;
    if st.rs_next_admit = before && st.rs_obs then Obs.incr "sim.queue.blocked"
  end

(* Instance [iidx] finished: free its processor and queue slot, then hand
   its output to every consumer — at once on the same processor (or into
   the deferred list when the destination queue is full), through a new
   pending transfer otherwise. *)
let on_finish st p iidx =
  let n_rids = p.p_rids in
  let rid = iidx mod n_rids and item = iidx / n_rids in
  let u = p.p_proc.(rid) in
  st.rs_finishes.(iidx) <- st.rs_f.(slot_now);
  st.rs_running.(u) <- false;
  touch st u;
  bump_makespan st;
  if Bytes.get st.rs_charged iidx = '\001' then begin
    st.rs_occ.(rid) <- st.rs_occ.(rid) - 1;
    st.rs_msg_dirty <- true
  end;
  for k = p.p_cons_off.(rid) to p.p_cons_off.(rid + 1) - 1 do
    let dst_rid = p.p_cons_dst.(k) in
    let dp = p.p_proc.(dst_rid) in
    let dst_alive = not st.rs_dead.(dst_rid) in
    let dst_iidx = (item * n_rids) + dst_rid in
    if dp = u then begin
      if dst_alive then
        if
          st.rs_bound = max_int
          || Bytes.get st.rs_charged dst_iidx = '\001'
          || has_room st p dst_rid
        then begin
          charge st p dst_iidx;
          satisfy st p dst_iidx p.p_cons_pos.(k)
        end
        else dl_push st dst_iidx p.p_cons_pos.(k)
    end
    else begin
      let mi = pm_alloc st in
      st.rs_pm_src.(mi) <- iidx;
      st.rs_pm_dst.(mi) <- dst_iidx;
      st.rs_pm_dst_rid.(mi) <- dst_rid;
      st.rs_pm_dp.(mi) <- dp;
      st.rs_pm_dur.(mi) <- p.p_cons_dur.(k);
      st.rs_pm_pos.(mi) <- p.p_cons_pos.(k);
      st.rs_pm_alive.(mi) <- dst_alive;
      st.rs_pm_attempt.(mi) <- 1;
      pend_push st u mi
    end
  done

let decode p iidx =
  let item = iidx / p.p_rids and rid = iidx mod p.p_rids in
  { item; rep = { Replica.task = rid / p.p_copies; copy = rid mod p.p_copies } }

(* Transfer [mi] arrived: log it and satisfy its destination. *)
let on_arrival st p mi =
  st.rs_msg_dirty <- true;
  bump_makespan st;
  if st.rs_record then
    st.rs_log <-
      {
        msg_src = decode p st.rs_pm_src.(mi);
        msg_dst = decode p st.rs_pm_dst.(mi);
        msg_start = st.rs_pm_commit.(mi);
        msg_finish = st.rs_f.(slot_now);
      }
      :: st.rs_log;
  if st.rs_pm_alive.(mi) then satisfy st p st.rs_pm_dst.(mi) st.rs_pm_pos.(mi)

(* A transient fault surfaced on the [attempt]-th try of a work unit:
   re-drive it as event [retry_ev] after the backoff and return [true],
   or, past the retry budget, abandon it — its consumers starve, the gap
   escalation policies react to — charge the exhaustion to processor
   [blame] and return [false]. *)
let retry_or_exhaust st ~attempt ~blame retry_ev =
  let retry = st.rs_faults.Faults.retry in
  if st.rs_obs then Obs.incr "sim.faults.transient";
  if attempt <= retry.Faults.Backoff.max_retries then begin
    let d = Faults.Backoff.delay retry ~attempt in
    st.rs_f_retries <- st.rs_f_retries + 1;
    st.rs_f.(slot_backoff) <- st.rs_f.(slot_backoff) +. d;
    if st.rs_obs then begin
      Obs.incr "sim.retries";
      Obs.observe "sim.retry_backoff_time" d
    end;
    st.rs_f.(slot_key) <- st.rs_f.(slot_now) +. d;
    schedule st retry_ev;
    true
  end
  else begin
    st.rs_f_exhausted <- st.rs_f_exhausted + 1;
    st.rs_exhausted_on.(blame) <- st.rs_exhausted_on.(blame) + 1;
    if st.rs_obs then Obs.incr "sim.faults.exhausted";
    false
  end

(* The execution attempt timed out: the processor was busy for the
   whole attempt and only now learns it produced nothing. *)
let on_exec_failed st p iidx =
  let u = p.p_proc.(iidx mod p.p_rids) in
  st.rs_running.(u) <- false;
  touch st u;
  bump_makespan st;
  st.rs_f_exec <- st.rs_f_exec + 1;
  ignore
    (retry_or_exhaust st ~attempt:st.rs_attempts.(iidx) ~blame:u
       ((iidx lsl 3) lor ev_inject))

(* The transfer attempt failed.  A retried transfer keeps its handle
   (and with it the legacy pm_seq tie-break); only the attempt count
   moves.  Exhaustion is charged to the sender's port — it did all the
   (re)work — mirroring execution faults charged to the executor. *)
let on_comm_failed st p mi =
  st.rs_msg_dirty <- true;
  bump_makespan st;
  st.rs_f_comm <- st.rs_f_comm + 1;
  let attempt = st.rs_pm_attempt.(mi) in
  let sender = p.p_proc.(st.rs_pm_src.(mi) mod p.p_rids) in
  if retry_or_exhaust st ~attempt ~blame:sender ((mi lsl 3) lor ev_requeue) then
    st.rs_pm_attempt.(mi) <- attempt + 1

let handle st p ev =
  let arg = ev asr 3 in
  match ev land 7 with
  | 0 (* ev_inject *) -> ready_push st p p.p_proc.(arg mod p.p_rids) arg
  | 1 (* ev_arrive *) -> on_arrive st p arg
  | 2 (* ev_finish *) -> on_finish st p arg
  | 3 (* ev_arrival *) -> on_arrival st p arg
  | 4 (* ev_port_free *) ->
      st.rs_msg_dirty <- true;
      bump_makespan st
  | 5 (* ev_exec_failed *) -> on_exec_failed st p arg
  | 6 (* ev_comm_failed *) -> on_comm_failed st p arg
  | _ (* ev_requeue *) ->
      bump_makespan st;
      pend_push st p.p_proc.(st.rs_pm_src.(arg) mod p.p_rids) arg

(* ------------------------------------------------------------------ *)
(* The event loop and the result                                        *)
(* ------------------------------------------------------------------ *)

(* The next timed-failure instant after the clock.  Crossing one can
   make a transfer committable with no event at that instant (its
   destination's ports stop mattering), so [run_events] marks the
   transfers dirty when the clock reaches it. *)
let advance_fail st p =
  let f = st.rs_f in
  f.(slot_next_fail) <- infinity;
  for u = 0 to p.p_procs - 1 do
    let t = st.rs_fail_time.(u) in
    if t > f.(slot_now) && t < f.(slot_next_fail) then f.(slot_next_fail) <- t
  done

let pop_and_handle st p =
  let ev = Event_heap.unsafe_pop st.rs_events in
  if st.rs_obs then Obs.incr "sim.events_popped";
  handle st p ev

(* The loop reads the heap's exposed arrays directly: the key peek lands
   in [slot_now] and the value pop is an immediate, so an iteration
   allocates nothing.  Simultaneous events are drained before any
   dispatch decision.  When room frees, in-pipeline data beats new
   source admissions: deferred local hand-offs first, then transfers,
   then the backlog — that priority order is the backpressure.  A
   transfer scan that would find nothing committable is skipped: a send
   port frees only at the event ending its transfer, and every other
   change that can make a transfer committable sets [rs_msg_dirty]. *)
let run_events st p =
  let events = st.rs_events and f = st.rs_f in
  while events.Event_heap.len > 0 do
    f.(slot_now) <- events.Event_heap.keys.(0);
    if f.(slot_now) >= f.(slot_next_fail) then begin
      st.rs_msg_dirty <- true;
      advance_fail st p
    end;
    pop_and_handle st p;
    while
      events.Event_heap.len > 0 && events.Event_heap.keys.(0) <= f.(slot_now)
    do
      pop_and_handle st p
    done;
    dispatch_local st p;
    if st.rs_msg_dirty then dispatch_msgs st p;
    if not st.rs_shed then dispatch_source st p;
    dispatch_procs st p
  done

(* The sojourn pass: per item, the latest over exit tasks of the
   earliest finishing copy, minus the arrival; [None] when some exit
   task has no finished copy.  Loops over unboxed locals, so the pass
   allocates only the result. *)
let sojourn_pass st p arrivals =
  let exits = p.p_exits and copies = p.p_copies and n_rids = p.p_rids in
  let dead = st.rs_dead and finishes = st.rs_finishes in
  Array.init (Array.length arrivals) (fun item ->
      let worst = ref 0.0 and complete = ref true and x = ref 0 in
      while !complete && !x < Array.length exits do
        let best = ref 0.0 and found = ref false in
        for copy = 0 to copies - 1 do
          let rid = (exits.(!x) * copies) + copy in
          let f = finishes.((item * n_rids) + rid) in
          if not (dead.(rid) || Float.is_nan f) then begin
            best := if !found then Float.min !best f else f;
            found := true
          end
        done;
        if !found then worst := Float.max !worst (!best -. arrivals.(item))
        else complete := false;
        incr x
      done;
      if !complete then Some !worst else None)

let result_of st p =
  let n_rids = p.p_rids and copies = p.p_copies and dead = st.rs_dead in
  let n_items = Array.length st.rs_injections in
  let get arr item (id : Replica.id) =
    if dead.((id.task * copies) + id.copy) then None
    else begin
      let v = arr.((item * n_rids) + (id.task * copies) + id.copy) in
      if Float.is_nan v then None else Some v
    end
  in
  {
    start_time = get st.rs_starts;
    finish_time = get st.rs_finishes;
    item_latency = sojourn_pass st p st.rs_arr_abs;
    period = st.rs_f.(slot_period);
    makespan = st.rs_f.(slot_makespan);
    messages = List.rev st.rs_log;
    arrivals = st.rs_arr_abs;
    injections = st.rs_injections;
    dropped = st.rs_dropped;
    stalled = n_items - st.rs_next_admit;
    peak_queue = st.rs_peak_queue;
    stall_time = st.rs_f.(slot_stall);
    faults =
      (if st.rs_fz then no_faults
       else
         {
           retries = st.rs_f_retries;
           backoff_time = st.rs_f.(slot_backoff);
           exec_faults = st.rs_f_exec;
           comm_faults = st.rs_f_comm;
           exhausted = st.rs_f_exhausted;
           exhausted_on = st.rs_exhausted_on;
           slowed_attempts = st.rs_f_slowed;
           degraded_transfers = st.rs_f_degraded;
         });
  }

(* ------------------------------------------------------------------ *)
(* The one run entry point                                              *)
(* ------------------------------------------------------------------ *)

let check_proc p what u =
  if u < 0 || u >= p.p_procs then
    invalid_arg ("Engine.simulate: processor outside [0, m) in " ^ what)

(* Reject a malformed scenario before anything touches the arena. *)
let check_scenario p ~n_items ~clock ~period ~queue_bound ~failed
    ~timed_failures ~faults =
  if n_items < 1 then invalid_arg "Engine.simulate: n_items < 1";
  if clock < 0.0 || not (Float.is_finite clock) then
    invalid_arg "Engine.simulate: snapshot clock must be finite and non-negative";
  if period < 0.0 || not (Float.is_finite period) then
    invalid_arg "Engine.simulate: period must be finite and non-negative";
  (match queue_bound with
  | Some b when b < 1 -> invalid_arg "Engine.simulate: queue_bound < 1"
  | _ -> ());
  if not (Faults.is_none faults) then Faults.validate ~procs:p.p_procs faults;
  List.iter (check_proc p "failed") failed;
  ignore
    (List.fold_left
       (fun seen (u, t) ->
         check_proc p "timed_failures" u;
         if Float.is_nan t || t < 0.0 then
           invalid_arg "Engine.simulate: negative or NaN failure time";
         if List.mem u seen then
           invalid_arg "Engine.simulate: duplicate processor in timed_failures";
         u :: seen)
       [] timed_failures)

let simulate ?state ~(config : Run.config) p =
  let reused = Option.is_some state in
  let st =
    match state with
    | Some (st : Run_state.t) ->
        if
          st.rs_rids <> p.p_rids || st.rs_procs <> p.p_procs
          || st.rs_total_preds <> p.p_total_preds
        then
          invalid_arg
            "Engine.simulate: run state was created for a different program";
        st
    | None -> Run_state.create p
  in
  let { Run.snapshot; failed; timed_failures; faults; _ } = config in
  let clock = match snapshot with Some s -> s.clock | None -> 0.0 in
  (* Closed traffic is the degenerate open run: the paper's steady state
     injects one item every [period] (default: the program's achieved
     period), which is a deterministic arrival process through unbounded
     [Block] queues — nothing ever waits at the source.  Its result
     reports the resolved period and, as documented, no queue
     occupancy.  Open runs are paced by their arrivals and report the
     program's period. *)
  let n_items, period, arrival, rng, queue_bound, policy, closed =
    match config.Run.traffic with
    | Run.Closed { n_items; period } ->
        let period = Option.value period ~default:p.p_period in
        let arrival = Arrival.Deterministic { period } in
        (n_items, period, arrival, None, None, Run.Block, true)
    | Run.Open { arrival; n_items; rng; queue_bound; policy } ->
        (n_items, p.p_period, arrival, rng, queue_bound, policy, false)
  in
  check_scenario p ~n_items ~clock ~period ~queue_bound ~failed
    ~timed_failures ~faults;
  let offsets = Arrival.times ?rng ~n:n_items arrival in
  Obs.with_span "sim.engine.run" (fun () ->
      Obs.incr "sim.runs";
      if reused then Obs.incr "sim.arena.reuses";
      List.iter Obs.touch
        [
          "sim.arena.creates"; "sim.arena.reuses"; "sim.cache.hits";
          "sim.cache.misses"; "sim.events_popped"; "sim.compiles"; "sim.drops";
          "sim.queue.enqueued"; "sim.queue.blocked"; "sim.retries";
          "sim.gray.slowdowns"; "sim.gray.degradations";
          "sim.faults.transient"; "sim.faults.exhausted";
        ];
      Obs.incr
        ~by:(List.length failed + List.length timed_failures)
        "sim.failures_injected";
      (match snapshot with
      | None -> ()
      | Some s ->
          (* Epoch bookkeeping: a run that picks the stream up from a
             surviving-state snapshot rather than time 0 is a resume. *)
          Obs.touch "sim.epoch.resumes";
          if s.clock > 0.0 then Obs.incr "sim.epoch.resumes";
          Obs.observe "sim.epoch.items" (float_of_int n_items));
      Run_state.start st p ~clock ~period ~offsets ~queue_bound ~policy ~failed
        ~timed_failures ~record_messages:config.Run.record_messages
        ~faults;
      seed_source st;
      advance_fail st p;
      run_events st p;
      if closed then st.rs_peak_queue <- 0;
      result_of st p)

let sojourns r =
  Array.to_list r.item_latency |> List.filter_map Fun.id

let sojourns_into r buf =
  let n = Array.length r.item_latency in
  if Array.length buf < n then
    invalid_arg "Engine.sojourns_into: buffer shorter than item_latency";
  let k = ref 0 in
  for i = 0 to n - 1 do
    match r.item_latency.(i) with
    | Some l ->
        buf.(!k) <- l;
        incr k
    | None -> ()
  done;
  !k

let sustained_throughput r =
  (* Absolute exit-availability instants of the items that completed. *)
  let completions =
    Array.to_list r.item_latency
    |> List.mapi (fun item l -> Option.map (fun lat -> r.arrivals.(item) +. lat) l)
    |> List.filter_map Fun.id
  in
  match completions with
  | [] | [ _ ] -> None
  | first :: _ ->
      let last = List.fold_left Float.max first completions in
      if last <= first then None
      else Some (float_of_int (List.length completions - 1) /. (last -. first))
