type snapshot = { clock : float; down : Platform.proc list }

let boot = { clock = 0.0; down = [] }

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
   state lives entirely inside [simulate]. *)
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
}

let program_mapping p = p.p_mapping
let program_period p = p.p_period

let compile m =
  if not (Mapping.is_complete m) then
    invalid_arg "Engine.compile: incomplete mapping";
  Obs.incr "sim.compiles";
  let dag = Mapping.dag m and plat = Mapping.platform m in
  let copies = Mapping.n_copies m in
  let n_tasks = Dag.size dag and n_procs = Platform.size plat in
  let n_rids = n_tasks * copies in
  let prio =
    let weights =
      {
        Levels.node = (fun t -> Dag.exec dag t *. Platform.mean_inverse_speed plat);
        Levels.edge = (fun _ _ vol -> vol *. Platform.mean_unit_delay plat);
      }
    in
    Levels.bottom dag weights
  in
  let pred_count = Array.init n_tasks (fun t -> List.length (Dag.preds dag t)) in
  let pred_off = Array.make (n_rids + 1) 0 in
  for rid = 0 to n_rids - 1 do
    pred_off.(rid + 1) <- pred_off.(rid) + pred_count.(rid / copies)
  done;
  let proc_of = Array.make n_rids (-1) in
  let exec_dur = Array.make n_rids 0.0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          let rid = (task * copies) + copy in
          proc_of.(rid) <- r.Replica.proc;
          exec_dur.(rid) <- Platform.exec_time plat r.Replica.proc (Dag.exec dag task)
    done
  done;
  (* Source groups. *)
  let grp_off = Array.make (n_rids + 1) 0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      let rid = (task * copies) + copy in
      let n =
        match Mapping.replica m task copy with
        | None -> 0
        | Some r -> List.length r.Replica.sources
      in
      grp_off.(rid + 1) <- grp_off.(rid) + n
    done
  done;
  let n_groups = grp_off.(n_rids) in
  let grp_src_off = Array.make (n_groups + 1) 0 in
  let grp_src_lists = Array.make (max 1 n_groups) [] in
  let g = ref 0 in
  for task = 0 to n_tasks - 1 do
    for copy = 0 to copies - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          List.iter
            (fun (_, ids) ->
              grp_src_off.(!g + 1) <-
                grp_src_off.(!g) + List.length ids;
              grp_src_lists.(!g) <- ids;
              incr g)
            r.Replica.sources
    done
  done;
  let grp_src = Array.make (max 1 grp_src_off.(n_groups)) 0 in
  for gi = 0 to n_groups - 1 do
    List.iteri
      (fun i (src : Replica.id) ->
        grp_src.(grp_src_off.(gi) + i) <- (src.task * copies) + src.copy)
      grp_src_lists.(gi)
  done;
  (* Consumers, in the legacy consumer-table encounter order: mapping
     iteration (task, copy ascending), then source-group order, then
     source order within the group. *)
  let pred_pos task pred =
    let rec scan i = function
      | [] -> invalid_arg "Engine.compile: source is not a predecessor"
      | (q, _) :: rest -> if q = pred then i else scan (i + 1) rest
    in
    scan 0 (Dag.preds dag task)
  in
  let cons_count = Array.make n_rids 0 in
  Mapping.iter m (fun (r : Replica.t) ->
      List.iter
        (fun (_, ids) ->
          List.iter
            (fun (src : Replica.id) ->
              let srid = (src.task * copies) + src.copy in
              cons_count.(srid) <- cons_count.(srid) + 1)
            ids)
        r.Replica.sources);
  let cons_off = Array.make (n_rids + 1) 0 in
  for rid = 0 to n_rids - 1 do
    cons_off.(rid + 1) <- cons_off.(rid) + cons_count.(rid)
  done;
  let n_cons = cons_off.(n_rids) in
  let cons_dst = Array.make (max 1 n_cons) 0 in
  let cons_dur = Array.make (max 1 n_cons) 0.0 in
  let cons_pos = Array.make (max 1 n_cons) 0 in
  let cursor = Array.sub cons_off 0 n_rids in
  Mapping.iter m (fun (r : Replica.t) ->
      let dst_rid = (r.id.Replica.task * copies) + r.id.Replica.copy in
      let dp = r.Replica.proc in
      List.iter
        (fun (pred, ids) ->
          let vol = Dag.volume dag pred r.id.Replica.task in
          let pos = pred_pos r.id.Replica.task pred in
          List.iter
            (fun (src : Replica.id) ->
              let srid = (src.task * copies) + src.copy in
              let k = cursor.(srid) in
              cons_dst.(k) <- dst_rid;
              cons_pos.(k) <- pos;
              cons_dur.(k) <-
                (let sp = proc_of.(srid) in
                 if sp = dp then 0.0 else Platform.comm_time plat sp dp vol);
              cursor.(srid) <- k + 1)
            ids)
        r.Replica.sources);
  {
    p_mapping = m;
    p_tasks = n_tasks;
    p_copies = copies;
    p_rids = n_rids;
    p_procs = n_procs;
    p_topo = Topo.order dag;
    p_prio = prio;
    p_pred_count = pred_count;
    p_pred_off = pred_off;
    p_total_preds = pred_off.(n_rids);
    p_proc = proc_of;
    p_exec_dur = exec_dur;
    p_grp_off = grp_off;
    p_grp_src_off = grp_src_off;
    p_grp_src = grp_src;
    p_cons_off = cons_off;
    p_cons_dst = cons_dst;
    p_cons_dur = cons_dur;
    p_cons_pos = cons_pos;
    p_entries = Array.of_list (Dag.entries dag);
    p_exits = Array.of_list (Dag.exits dag);
    p_period = Metrics.period m;
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

  let closed ?(n_items = 1) ?period () =
    {
      traffic = Closed { n_items; period };
      snapshot = None;
      failed = [];
      timed_failures = [];
      record_messages = true;
      faults = Faults.none;
    }

  let open_ ?queue_bound ?(policy = Block) ?rng ~n_items arrival =
    {
      traffic = Open { arrival; n_items; rng; queue_bound; policy };
      snapshot = None;
      failed = [];
      timed_failures = [];
      record_messages = true;
      faults = Faults.none;
    }

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

let ev_inject = 0 (* arg: iidx — an entry instance becomes ready *)
let ev_arrive = 1 (* arg: item — open mode: an item reaches the source *)
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

(* The resolved traffic of one run: [ot_offsets] is empty for a closed
   run and carries the materialized arrival offsets of an open one. *)
type traffic_plan = {
  ot_open : bool;
  ot_offsets : float array;
  ot_bound : int;  (* max_int = unbounded *)
  ot_drop : bool;  (* Drop_newest *)
}

let closed_plan =
  { ot_open = false; ot_offsets = [||]; ot_bound = max_int; ot_drop = false }

(* ------------------------------------------------------------------ *)
(* The reusable run-state arena                                         *)
(* ------------------------------------------------------------------ *)

(* Every array slab [run_compiled_impl] needs, owned by the caller so a
   draw loop (crash sampling, epochs, traffic sweeps) allocates them once
   and replays thousands of scenarios with zero per-draw slab allocation.
   Per-processor and per-replica slabs are sized at [create]; the
   per-(item, replica) slabs grow geometrically on demand, since the item
   count varies run to run.  Each run fully re-initializes the ranges it
   uses, so a reused arena is bit-identical to a fresh one. *)
module Run_state = struct
  type t = {
    rs_rids : int;
    rs_procs : int;
    rs_total_preds : int;
    (* per-processor slabs *)
    rs_fail_time : float array;
    rs_seen_timed : bool array;
    rs_failed_procs : bool array;
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
    (* message pool (structure-of-arrays), grown on demand; its length
       counter is per-run, so no reset is needed — every run writes a
       slot before reading it, and the slots hold no pointers *)
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
    mutable rs_opened : Bytes.t;
    mutable rs_sat : Bytes.t;
    (* event queue, message log, deferred local deliveries *)
    rs_events : Event_heap.t;
    mutable rs_log : message option array;
    mutable rs_dl_dst : int array;
    mutable rs_dl_pos : int array;
  }

  let create p =
    Obs.incr "sim.arena.creates";
    let procs = p.p_procs and rids = p.p_rids in
    {
      rs_rids = rids;
      rs_procs = procs;
      rs_total_preds = p.p_total_preds;
      rs_fail_time = Array.make procs infinity;
      rs_seen_timed = Array.make procs false;
      rs_failed_procs = Array.make procs false;
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
      rs_opened = Bytes.make (max 1 rids) '\000';
      rs_sat = Bytes.make (max 1 p.p_total_preds) '\000';
      rs_events = Event_heap.create ();
      rs_log = Array.make 64 None;
      rs_dl_dst = [||];
      rs_dl_pos = [||];
    }

  (* Grow the item-dependent slabs to at least the run's needs.  New
     arrays need no fill here: the run initializes the range it uses. *)
  let ensure st ~total ~sat_len =
    if Array.length st.rs_starts < total then begin
      let cap = max total (2 * Array.length st.rs_starts) in
      st.rs_starts <- Array.make cap nan;
      st.rs_finishes <- Array.make cap nan;
      st.rs_unsatisfied <- Array.make cap 0;
      st.rs_attempts <- Array.make cap 0;
      st.rs_opened <- Bytes.make cap '\000'
    end;
    if Bytes.length st.rs_sat < sat_len then
      st.rs_sat <- Bytes.make (max sat_len (2 * Bytes.length st.rs_sat)) '\000'
end

let run_compiled_impl ~state ~snapshot ~n_items ~period ~failed
    ~timed_failures ~traffic ~record_messages ~faults p =
  if n_items < 1 then invalid_arg "Engine.simulate: n_items < 1";
  let clock = snapshot.clock in
  if clock < 0.0 || not (Float.is_finite clock) then
    invalid_arg "Engine.simulate: snapshot clock must be finite and non-negative";
  let period =
    match period with
    | Some q ->
        if q < 0.0 || not (Float.is_finite q) then
          invalid_arg "Engine.simulate: period must be finite and non-negative"
        else q
    | None -> p.p_period
  in
  let open_mode = traffic.ot_open in
  let bound = traffic.ot_bound and shed = traffic.ot_drop in
  let copies = p.p_copies in
  let n_rids = p.p_rids and n_procs = p.p_procs in
  let prio = p.p_prio and proc_of = p.p_proc in
  (* Fault scenario.  [fz] guards every fault-model touch point: when the
     scenario is Faults.none the run takes exactly the legacy code path —
     no draws, no factor multiplies, no extra allocations — and stays
     bit-identical to the pre-faults engine. *)
  let fz = Faults.is_none faults in
  if not fz then Faults.validate ~procs:n_procs faults;
  let transient = faults.Faults.transient
  and retry = faults.Faults.retry
  and gray = faults.Faults.gray in
  (* Skips the gray-factor lookups, and the boxed clock each call would
     take, when no straggler or link window is set. *)
  let no_gray = fz || Faults.Gray.is_none gray in
  let (st : Run_state.t) = state in
  (* fail_time.(u) is when the processor crashes (fail-stop): work and
     transfers completing strictly later are lost.  A crash at or before
     the snapshot clock is the paper's fail-silent-from-the-start case and
     also prunes replicas statically (they can never produce anything). *)
  let check_proc what u =
    if u < 0 || u >= n_procs then
      invalid_arg ("Engine.simulate: processor outside [0, m) in " ^ what)
  in
  List.iter (check_proc "failed") failed;
  List.iter (check_proc "snapshot.down") snapshot.down;
  let fail_time = st.rs_fail_time in
  Array.fill fail_time 0 n_procs infinity;
  List.iter (fun u -> fail_time.(u) <- 0.0) (failed @ snapshot.down);
  let seen_timed = st.rs_seen_timed in
  Array.fill seen_timed 0 n_procs false;
  List.iter
    (fun (u, t) ->
      check_proc "timed_failures" u;
      if Float.is_nan t || t < 0.0 then
        invalid_arg "Engine.simulate: negative or NaN failure time";
      if seen_timed.(u) then
        invalid_arg "Engine.simulate: duplicate processor in timed_failures";
      seen_timed.(u) <- true;
      fail_time.(u) <- Float.min fail_time.(u) t)
    timed_failures;
  let failed_procs = st.rs_failed_procs in
  for u = 0 to n_procs - 1 do
    failed_procs.(u) <- fail_time.(u) <= clock
  done;
  (* Liveness sweep: a replica is dead when its processor failed
     statically or when, for some predecessor, every source is dead. *)
  let dead = st.rs_dead in
  Array.fill dead 0 n_rids true;
  Array.iter
    (fun task ->
      for copy = 0 to copies - 1 do
        let rid = (task * copies) + copy in
        if proc_of.(rid) >= 0 && not failed_procs.(proc_of.(rid)) then begin
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
      done)
    p.p_topo;
  (* Per-instance state: iidx = item * n_rids + rid. *)
  let total = n_items * n_rids in
  let sat_len = n_items * p.p_total_preds in
  Run_state.ensure st ~total ~sat_len;
  (* Fault ledger: execution attempt counters per instance, exhaustion
     counts per processor, and the run-wide tallies of the result's
     [fault_stats].  Initialized only when the scenario is live.
     [exhausted_on] stays a fresh allocation: it is returned in the
     result and must survive the arena's next run. *)
  let attempts =
    if fz then [||]
    else begin
      Array.fill st.rs_attempts 0 total 0;
      st.rs_attempts
    end
  in
  let exhausted_on = if fz then [||] else Array.make n_procs 0 in
  let f_retries = ref 0 and f_backoff = Array.make 1 0.0 in
  let f_exec = ref 0 and f_comm = ref 0 and f_exhausted = ref 0 in
  let f_slowed = ref 0 and f_degraded = ref 0 in
  let starts = st.rs_starts and finishes = st.rs_finishes in
  Array.fill starts 0 total nan;
  Array.fill finishes 0 total nan;
  let unsatisfied = st.rs_unsatisfied in
  Array.fill unsatisfied 0 total 0;
  (* Which predecessor positions are already satisfied, one byte per
     (item, task, position). *)
  let sat = st.rs_sat in
  Bytes.fill sat 0 sat_len '\000';
  for item = 0 to n_items - 1 do
    for rid = 0 to n_rids - 1 do
      if not dead.(rid) then
        unsatisfied.((item * n_rids) + rid) <- p.p_pred_count.(rid / copies)
    done
  done;
  (* Processor and port state. *)
  let busy_until = st.rs_busy_until in
  Array.fill busy_until 0 n_procs 0.0;
  let running = st.rs_running in
  Array.fill running 0 n_procs false;
  let send_free = st.rs_send_free and recv_free = st.rs_recv_free in
  Array.fill send_free 0 n_procs 0.0;
  Array.fill recv_free 0 n_procs 0.0;
  let events = st.rs_events in
  Event_heap.clear events;
  (* Scratch slot for [Event_heap.add]: the scheduled time is
     stored here (an unboxed float-array store) so the hot add sites
     never box their key. *)
  let ev_key = Array.make 1 0.0 in
  (* The loop's current time, also unboxed: [loop] writes the popped
     key here and [handle]/[drain]/the dispatchers read it back as a
     float-array load, so on the fault-free closed-mode path an event
     iteration materialises no boxed float at all. *)
  let tnow = Array.make 1 clock in
  (* The metrics gate is hoisted out of the hot loop: when recording is
     off the run pays exactly one flag read. *)
  let obs = Obs.enabled () in
  let observe_heap () =
    if obs then Obs.observe "sim.heap_size" (float_of_int (Event_heap.size events))
  in
  (* Growable message-log buffer, chronological commit order; skipped
     entirely when the config turns message recording off (draw loops
     that never read [result.messages] save the per-transfer records). *)
  let log_len = ref 0 in
  let log_push msg =
    if !log_len = Array.length st.rs_log then begin
      let d = Array.make (2 * !log_len) None in
      Array.blit st.rs_log 0 d 0 !log_len;
      st.rs_log <- d
    end;
    st.rs_log.(!log_len) <- Some msg;
    incr log_len
  in
  (* A one-slot float array rather than a ref: stores into a float array
     are unboxed, so the per-event makespan update allocates nothing. *)
  let makespan = Array.make 1 clock in
  (* Ready instances, one binary heap per processor.  The heap order is
     the legacy [better] relation — item ascending, then task priority
     descending, then replica id ascending — which is a strict total
     order on any one processor's ready set (two instances there always
     differ in item or task), so popping the root picks exactly the
     instance the legacy list fold selected. *)
  let ready_data = st.rs_ready_data in
  let ready_len = st.rs_ready_len in
  Array.fill ready_len 0 n_procs 0;
  (* The processors whose startability may have changed since the last
     [dispatch_procs]: an idle processor becomes startable only when its
     ready heap gains an instance or when it frees, and both touch it. *)
  let touched = st.rs_touched and touch_list = st.rs_touch_list in
  Array.fill touched 0 n_procs false;
  let n_touched = ref 0 in
  let touch u =
    if not touched.(u) then begin
      touched.(u) <- true;
      touch_list.(!n_touched) <- u;
      incr n_touched
    end
  in
  let inst_before a b =
    let ia = a / n_rids and ib = b / n_rids in
    if ia <> ib then ia < ib
    else begin
      let ra = a mod n_rids and rb = b mod n_rids in
      let pa = prio.(ra / copies) and pb = prio.(rb / copies) in
      if pa <> pb then pa > pb else ra < rb
    end
  in
  let ready_push u x =
    touch u;
    let len = ready_len.(u) in
    if len = Array.length ready_data.(u) then begin
      let d = Array.make (max 8 (2 * len)) 0 in
      Array.blit ready_data.(u) 0 d 0 len;
      ready_data.(u) <- d
    end;
    let d = ready_data.(u) in
    d.(len) <- x;
    ready_len.(u) <- len + 1;
    let i = ref len in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      inst_before d.(!i) d.(parent)
      &&
      (let tmp = d.(!i) in
       d.(!i) <- d.(parent);
       d.(parent) <- tmp;
       i := parent;
       true)
    do
      ()
    done
  in
  let ready_pop u =
    let d = ready_data.(u) in
    let len = ready_len.(u) - 1 in
    let top = d.(0) in
    d.(0) <- d.(len);
    ready_len.(u) <- len;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < len && inst_before d.(l) d.(!smallest) then smallest := l;
      if r < len && inst_before d.(r) d.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = d.(!i) in
        d.(!i) <- d.(!smallest);
        d.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    top
  in
  (* Pending transfers, bucketed by sending processor (the send port they
     wait on); index-based removal, so structurally identical messages
     are distinct entries.  [ports] lists the send ports with a
     nonempty bucket; [port_at] is written when a port enters the list,
     before any read. *)
  let pend_data = st.rs_pend_data in
  let pend_len = st.rs_pend_len in
  Array.fill pend_len 0 n_procs 0;
  let ports = st.rs_ports and port_at = st.rs_port_at in
  let n_ports = ref 0 in
  (* Set whenever a pending transfer may have become committable since
     the last [dispatch_msgs] scan that found none (see [loop]). *)
  let msg_dirty = ref false in
  (* Message-pool cursor: handles are issued in creation order, which is
     exactly the legacy [pm_seq] numbering (one message created per
     cross-processor hand-off, and a requeued message keeps its
     handle). *)
  let pm_len = ref 0 in
  let pm_ensure () =
    if !pm_len = Array.length st.rs_pm_src then begin
      let cap = max 16 (2 * Array.length st.rs_pm_src) in
      let grow_int a =
        let d = Array.make cap 0 in
        Array.blit a 0 d 0 !pm_len;
        d
      in
      let grow_float a =
        let d = Array.make cap 0.0 in
        Array.blit a 0 d 0 !pm_len;
        d
      in
      let grow_bool a =
        let d = Array.make cap false in
        Array.blit a 0 d 0 !pm_len;
        d
      in
      st.rs_pm_src <- grow_int st.rs_pm_src;
      st.rs_pm_dst <- grow_int st.rs_pm_dst;
      st.rs_pm_dst_rid <- grow_int st.rs_pm_dst_rid;
      st.rs_pm_dp <- grow_int st.rs_pm_dp;
      st.rs_pm_pos <- grow_int st.rs_pm_pos;
      st.rs_pm_attempt <- grow_int st.rs_pm_attempt;
      st.rs_pm_dur <- grow_float st.rs_pm_dur;
      st.rs_pm_commit <- grow_float st.rs_pm_commit;
      st.rs_pm_alive <- grow_bool st.rs_pm_alive
    end
  in
  let pend_push u mi =
    let len = pend_len.(u) in
    if len = Array.length pend_data.(u) then begin
      let d = Array.make (max 4 (2 * len)) 0 in
      Array.blit pend_data.(u) 0 d 0 len;
      pend_data.(u) <- d
    end;
    pend_data.(u).(len) <- mi;
    pend_len.(u) <- len + 1;
    if len = 0 then begin
      port_at.(u) <- !n_ports;
      ports.(!n_ports) <- u;
      incr n_ports
    end;
    msg_dirty := true
  in
  let pend_remove u i =
    let len = pend_len.(u) - 1 in
    pend_data.(u).(i) <- pend_data.(u).(len);
    pend_len.(u) <- len;
    if len = 0 then begin
      let last = !n_ports - 1 in
      let v = ports.(last) and k = port_at.(u) in
      ports.(k) <- v;
      port_at.(v) <- k;
      n_ports := last
    end
  in
  let satisfy iidx pos =
    let item = iidx / n_rids and rid = iidx mod n_rids in
    let si = (item * p.p_total_preds) + p.p_pred_off.(rid) + pos in
    if Bytes.get sat si = '\000' then begin
      Bytes.set sat si '\001';
      unsatisfied.(iidx) <- unsatisfied.(iidx) - 1;
      if unsatisfied.(iidx) = 0 then ready_push proc_of.(rid) iidx
    end
  in
  (* ---- open-system state: queues, source backlog, shedding ---------- *)
  (* An instance occupies its replica's bounded input queue from the
     moment data is first committed toward it (for an entry task: from
     admission) until it finishes executing.  [opened] marks the charge;
     the charge is skipped when the replica's processor is already dead
     at charge time (no queue survives a crash), and an instance that
     finishes always had a live-processor charge, so the Finish-side
     release below never underflows. *)
  let arr_abs =
    if open_mode then Array.map (fun o -> clock +. o) traffic.ot_offsets
    else [||]
  in
  (* Closed runs never read [occ] / [opened] (every touch point is
     guarded by [open_mode]), so they are only re-initialized for open
     ones. *)
  let occ = st.rs_occ in
  if open_mode then Array.fill occ 0 n_rids 0;
  let opened = st.rs_opened in
  if open_mode then Bytes.fill opened 0 total '\000';
  let injections = Array.make n_items nan in
  let dropped = ref 0 in
  let stall_time = Array.make 1 0.0 in
  let peak_queue = ref 0 in
  let next_admit = ref 0 in
  let arrived = ref 0 in
  (* The open-mode helpers below read the clock from [tnow] rather than
     taking a [float] argument, which would be boxed at every call. *)
  let charge iidx =
    if Bytes.get opened iidx = '\000' then begin
      Bytes.set opened iidx '\001';
      msg_dirty := true;
      let rid = iidx mod n_rids in
      if fail_time.(proc_of.(rid)) > tnow.(0) then begin
        let o = occ.(rid) + 1 in
        occ.(rid) <- o;
        if o > !peak_queue then peak_queue := o;
        if obs then begin
          Obs.incr "sim.queue.enqueued";
          Obs.observe "sim.queue.occupancy" (float_of_int o)
        end
      end
    end
  in
  let has_room rid = fail_time.(proc_of.(rid)) <= tnow.(0) || occ.(rid) < bound in
  (* Deferred local deliveries: a finished instance's same-processor
     hand-off that found the destination queue full waits here, oldest
     first, and is retried whenever occupancy may have freed. *)
  let dl_len = ref 0 in
  let dl_push dst pos =
    if !dl_len = Array.length st.rs_dl_dst then begin
      let n = max 8 (2 * !dl_len) in
      let d = Array.make n 0 and q = Array.make n 0 in
      Array.blit st.rs_dl_dst 0 d 0 !dl_len;
      Array.blit st.rs_dl_pos 0 q 0 !dl_len;
      st.rs_dl_dst <- d;
      st.rs_dl_pos <- q
    end;
    st.rs_dl_dst.(!dl_len) <- dst;
    st.rs_dl_pos.(!dl_len) <- pos;
    incr dl_len;
    if obs then Obs.incr "sim.queue.blocked"
  in
  let dispatch_local () =
    if !dl_len > 0 then begin
      let dl_dst = st.rs_dl_dst and dl_pos = st.rs_dl_pos in
      let w = ref 0 in
      for i = 0 to !dl_len - 1 do
        let dst = dl_dst.(i) and pos = dl_pos.(i) in
        if Bytes.get opened dst = '\001' || has_room (dst mod n_rids) then begin
          charge dst;
          satisfy dst pos
        end
        else begin
          dl_dst.(!w) <- dst;
          dl_pos.(!w) <- pos;
          incr w
        end
      done;
      dl_len := !w
    end
  in
  (* Admission: every live entry replica must have queue room; a dead or
     crashed one imposes nothing (its shard is gone).  Admitting makes
     the item's entry instances ready, exactly as a closed-mode Inject
     batch does. *)
  let entries = p.p_entries in
  let entry_room () =
    bound = max_int
    ||
    let ok = ref true and e = ref 0 in
    while !ok && !e < Array.length entries do
      for copy = 0 to copies - 1 do
        let rid = (entries.(!e) * copies) + copy in
        if (not dead.(rid)) && not (has_room rid) then ok := false
      done;
      incr e
    done;
    !ok
  in
  let admit item =
    let now = tnow.(0) in
    injections.(item) <- now;
    stall_time.(0) <- stall_time.(0) +. (now -. arr_abs.(item));
    for e = 0 to Array.length entries - 1 do
      for copy = 0 to copies - 1 do
        let rid = (entries.(e) * copies) + copy in
        if not dead.(rid) then begin
          let iidx = (item * n_rids) + rid in
          charge iidx;
          ready_push proc_of.(rid) iidx
        end
      done
    done
  in
  (* Admit as many backlogged items as fit, FIFO: the head of the line
     blocks the line (that is what backpressure means at the source). *)
  let rec dispatch_source () =
    if !next_admit < !arrived && entry_room () then begin
      let item = !next_admit in
      incr next_admit;
      admit item;
      dispatch_source ()
    end
  in
  (* Start the best ready instance on every touched processor that is
     idle and alive, in ascending processor order — the order a full
     sweep would visit them, so the finish events get the same
     insertion numbers.  An untouched processor cannot start: it was
     left unstartable by the previous dispatch and nothing has changed
     for it since.  Starting touches nobody, so the worklist is stable
     while it is visited.  Sorting k touches (k <= m) takes at most k·m
     steps; the full sweep took m after every event. *)
  let dispatch_procs () =
    let now = tnow.(0) in
    let k = !n_touched in
    n_touched := 0;
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
      touched.(u) <- false;
      if
        (not running.(u)) && busy_until.(u) <= now && ready_len.(u) > 0
        && now < fail_time.(u)
      then begin
        let iidx = ready_pop u in
        let dur = p.p_exec_dur.(iidx mod n_rids) in
        (* Gray straggler: the factor active at the attempt's start
           stretches the whole attempt. *)
        let dur =
          if no_gray then dur
          else begin
            let f = Faults.Gray.exec_factor gray ~proc:u ~at:now in
            if f = 1.0 then dur
            else begin
              incr f_slowed;
              if obs then Obs.incr "sim.gray.slowdowns";
              dur *. f
            end
          end
        in
        starts.(iidx) <- now;
        running.(u) <- true;
        busy_until.(u) <- now +. dur;
        if now +. dur <= fail_time.(u) then begin
          (* Transient execution fault: decided at dispatch, surfaced
             only when the full attempt duration has elapsed (the
             timeout) — the processor is busy for the whole attempt
             either way. *)
          let failing =
            (not fz)
            && begin
                 attempts.(iidx) <- attempts.(iidx) + 1;
                 Faults.Transient.exec_fails transient ~proc:u ~key:iidx
                   ~attempt:attempts.(iidx) ~at:now
               end
          in
          ev_key.(0) <- now +. dur;
          Event_heap.add events ev_key
            ((iidx lsl 3) lor (if failing then ev_exec_failed else ev_finish));
          observe_heap ()
        end
        (* else: the crash interrupts this execution; the processor
           never frees and the result is lost *)
      end
    done
  in
  (* Whether a pending transfer may claim the destination's queue: a
     dead destination has no queue, an already-queued instance must keep
     receiving (or the pipeline would deadlock on its own bound), and
     otherwise the queue needs room. *)
  let msg_room mi =
    (not st.rs_pm_alive.(mi))
    || fail_time.(st.rs_pm_dp.(mi)) <= tnow.(0)
    || Bytes.get opened st.rs_pm_dst.(mi) = '\001'
    || occ.(st.rs_pm_dst_rid.(mi)) < bound
  in
  (* Greedily commit every transfer whose data and both ports are free.
     The candidate order is the legacy one: highest destination priority,
     then smallest destination instance, then (on full ties) the most
     recently created message — the highest pool handle.  That order is
     strict (handles are unique), so the winner does not depend on the
     order [ports] is scanned in.  Clears [msg_dirty] once nothing is
     committable. *)
  let rec dispatch_msgs () =
    let now = tnow.(0) in
    let best = ref (-1) in
    let best_u = ref (-1) and best_i = ref (-1) in
    for k = 0 to !n_ports - 1 do
      let u = ports.(k) in
      if now < fail_time.(u) && send_free.(u) <= now then
        for i = 0 to pend_len.(u) - 1 do
          let mi = pend_data.(u).(i) in
          let dp = st.rs_pm_dp.(mi) in
          if
            (fail_time.(dp) <= now || recv_free.(dp) <= now)
            && ((not open_mode) || bound = max_int || msg_room mi)
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
    let mi = !best in
    if mi >= 0 then begin
      pend_remove !best_u !best_i;
      let sp = !best_u and dp = st.rs_pm_dp.(mi) in
      (* Gray link degradation: the factor active at commit time
         stretches the whole transfer on both ports. *)
      let dur =
        if no_gray then st.rs_pm_dur.(mi)
        else begin
          let f = Faults.Gray.comm_factor gray ~src:sp ~dst:dp ~at:now in
          if f = 1.0 then st.rs_pm_dur.(mi)
          else begin
            incr f_degraded;
            if obs then Obs.incr "sim.gray.degradations";
            st.rs_pm_dur.(mi) *. f
          end
        end
      in
      send_free.(sp) <- now +. dur;
      if fail_time.(dp) > now then recv_free.(dp) <- now +. dur;
      if now +. dur <= fail_time.(sp) && now +. dur <= fail_time.(dp)
      then begin
        (* Transient transfer fault: decided at commit, surfaced when
           the full transfer duration has elapsed (the timeout) — the
           ports are held for the whole attempt either way. *)
        let failing =
          (not fz)
          && Faults.Transient.comm_fails transient ~src:sp ~key:mi
               ~attempt:st.rs_pm_attempt.(mi) ~at:now
        in
        ev_key.(0) <- now +. dur;
        if failing then
          Event_heap.add events ev_key ((mi lsl 3) lor ev_comm_failed)
        else begin
          (* The transfer will arrive: reserve the destination's queue
             slot now, so concurrent senders see the occupancy. *)
          if open_mode && st.rs_pm_alive.(mi) then charge st.rs_pm_dst.(mi);
          st.rs_pm_commit.(mi) <- now;
          Event_heap.add events ev_key ((mi lsl 3) lor ev_arrival)
        end
      end
      else begin
        (* the crash loses the transfer in flight, but the ports still
           free up and waiting messages must be woken *)
        ev_key.(0) <- now +. dur;
        Event_heap.add events ev_key ev_port_free
      end;
      observe_heap ();
      dispatch_msgs ()
    end
    else msg_dirty := false
  in
  (* Seed the source.  Closed: entry instances of every item at their
     injection times.  Open: one Arrive per item at its arrival offset —
     admission happens when the event pops (and, under backpressure,
     when room frees). *)
  if open_mode then
    for item = 0 to n_items - 1 do
      ev_key.(0) <- arr_abs.(item);
      Event_heap.add events ev_key ((item lsl 3) lor ev_arrive);
      observe_heap ()
    done
  else
    for item = 0 to n_items - 1 do
      ev_key.(0) <- clock +. (float_of_int item *. period);
      for e = 0 to Array.length entries - 1 do
        for copy = 0 to copies - 1 do
          let rid = (entries.(e) * copies) + copy in
          if not dead.(rid) then begin
            Event_heap.add events ev_key
              ((((item * n_rids) + rid) lsl 3) lor ev_inject);
            observe_heap ()
          end
        done
      done
    done;
  let decode iidx =
    let item = iidx / n_rids and rid = iidx mod n_rids in
    { item; rep = { Replica.task = rid / copies; copy = rid mod copies } }
  in
  let handle ev =
    let now = tnow.(0) in
    match ev land 7 with
    | 0 (* ev_inject *) ->
        let iidx = ev asr 3 in
        ready_push proc_of.(iidx mod n_rids) iidx
    | 1 (* ev_arrive *) ->
        let item = ev asr 3 in
        arrived := !arrived + 1;
        if shed then begin
          (* Load shedding decides at the arrival instant: admit or
             drop, never defer — the backlog stays empty. *)
          if entry_room () then begin
            incr next_admit;
            admit item
          end
          else begin
            incr next_admit;
            incr dropped;
            if obs then Obs.incr "sim.drops"
          end
        end
        else begin
          let before = !next_admit in
          dispatch_source ();
          if !next_admit = before && obs then Obs.incr "sim.queue.blocked"
        end
    | 2 (* ev_finish *) ->
        let iidx = ev asr 3 in
        let rid = iidx mod n_rids and item = iidx / n_rids in
        let u = proc_of.(rid) in
        finishes.(iidx) <- now;
        running.(u) <- false;
        touch u;
        if now > makespan.(0) then makespan.(0) <- now;
        if open_mode && Bytes.get opened iidx = '\001' then begin
          occ.(rid) <- occ.(rid) - 1;
          msg_dirty := true
        end;
        for k = p.p_cons_off.(rid) to p.p_cons_off.(rid + 1) - 1 do
          let dst_rid = p.p_cons_dst.(k) in
          let dp = proc_of.(dst_rid) in
          let dst_alive = not dead.(dst_rid) in
          let dst_iidx = (item * n_rids) + dst_rid in
          if dp = u then begin
            if dst_alive then
              if
                (not open_mode) || bound = max_int
                || Bytes.get opened dst_iidx = '\001'
                || has_room dst_rid
              then begin
                if open_mode then charge dst_iidx;
                satisfy dst_iidx p.p_cons_pos.(k)
              end
              else dl_push dst_iidx p.p_cons_pos.(k)
          end
          else begin
            pm_ensure ();
            let mi = !pm_len in
            pm_len := mi + 1;
            st.rs_pm_src.(mi) <- iidx;
            st.rs_pm_dst.(mi) <- dst_iidx;
            st.rs_pm_dst_rid.(mi) <- dst_rid;
            st.rs_pm_dp.(mi) <- dp;
            st.rs_pm_dur.(mi) <- p.p_cons_dur.(k);
            st.rs_pm_pos.(mi) <- p.p_cons_pos.(k);
            st.rs_pm_alive.(mi) <- dst_alive;
            st.rs_pm_attempt.(mi) <- 1;
            pend_push u mi
          end
        done
    | 3 (* ev_arrival *) ->
        let mi = ev asr 3 in
        msg_dirty := true;
        if now > makespan.(0) then makespan.(0) <- now;
        if record_messages then
          log_push
            {
              msg_src = decode st.rs_pm_src.(mi);
              msg_dst = decode st.rs_pm_dst.(mi);
              msg_start = st.rs_pm_commit.(mi);
              msg_finish = now;
            };
        if st.rs_pm_alive.(mi) then
          satisfy st.rs_pm_dst.(mi) st.rs_pm_pos.(mi)
    | 4 (* ev_port_free *) ->
        msg_dirty := true;
        if now > makespan.(0) then makespan.(0) <- now
    | 5 (* ev_exec_failed *) ->
        (* The attempt timed out: the processor was busy for the whole
           attempt and only now learns it produced nothing. *)
        let iidx = ev asr 3 in
        let u = proc_of.(iidx mod n_rids) in
        running.(u) <- false;
        touch u;
        if now > makespan.(0) then makespan.(0) <- now;
        incr f_exec;
        if obs then Obs.incr "sim.faults.transient";
        if attempts.(iidx) <= retry.Faults.Backoff.max_retries then begin
          let d = Faults.Backoff.delay retry ~attempt:attempts.(iidx) in
          incr f_retries;
          f_backoff.(0) <- f_backoff.(0) +. d;
          if obs then begin
            Obs.incr "sim.retries";
            Obs.observe "sim.retry_backoff_time" d
          end;
          ev_key.(0) <- now +. d;
          Event_heap.add events ev_key ((iidx lsl 3) lor ev_inject);
          observe_heap ()
        end
        else begin
          (* Retry budget exhausted: the instance is abandoned and its
             consumers starve — the gap escalation policies react to. *)
          incr f_exhausted;
          exhausted_on.(u) <- exhausted_on.(u) + 1;
          if obs then Obs.incr "sim.faults.exhausted"
        end
    | 6 (* ev_comm_failed *) ->
        let mi = ev asr 3 in
        msg_dirty := true;
        if now > makespan.(0) then makespan.(0) <- now;
        incr f_comm;
        if obs then Obs.incr "sim.faults.transient";
        let attempt = st.rs_pm_attempt.(mi) in
        if attempt <= retry.Faults.Backoff.max_retries then begin
          let d = Faults.Backoff.delay retry ~attempt in
          incr f_retries;
          f_backoff.(0) <- f_backoff.(0) +. d;
          if obs then begin
            Obs.incr "sim.retries";
            Obs.observe "sim.retry_backoff_time" d
          end;
          (* The backed-off attempt keeps its handle (and with it the
             legacy pm_seq tie-break); only the attempt count moves. *)
          st.rs_pm_attempt.(mi) <- attempt + 1;
          ev_key.(0) <- now +. d;
          Event_heap.add events ev_key ((mi lsl 3) lor ev_requeue);
          observe_heap ()
        end
        else begin
          (* Exhaustion is charged to the sender's port — it did all the
             (re)work — mirroring exec attribution to the executor. *)
          incr f_exhausted;
          let sp = proc_of.(st.rs_pm_src.(mi) mod n_rids) in
          exhausted_on.(sp) <- exhausted_on.(sp) + 1;
          if obs then Obs.incr "sim.faults.exhausted"
        end
    | _ (* ev_requeue *) ->
        let mi = ev asr 3 in
        if now > makespan.(0) then makespan.(0) <- now;
        pend_push proc_of.(st.rs_pm_src.(mi) mod n_rids) mi
  in
  (* The pop protocol reads the heap's exposed arrays directly: the key
     peek lands in the [tnow] slot and the value pop is an immediate, so
     an iteration of the loop below allocates nothing. *)
  (* Drain simultaneous events before dispatching decisions.  Hoisted
     out of [loop] so the closure is allocated once per run, not once
     per iteration. *)
  let rec drain () =
    if events.Event_heap.len > 0 && events.Event_heap.keys.(0) <= tnow.(0)
    then begin
      let ev' = Event_heap.unsafe_pop events in
      if obs then Obs.incr "sim.events_popped";
      handle ev';
      drain ()
    end
  in
  (* The next timed-failure instant after the clock, in a slot so it
     stays unboxed.  Crossing one can make a transfer committable with no
     event at that instant (its destination's ports stop mattering), so
     [loop] marks the transfers dirty when the clock reaches it. *)
  let next_fail = Array.make 1 infinity in
  let advance_fail () =
    next_fail.(0) <- infinity;
    for u = 0 to n_procs - 1 do
      let f = fail_time.(u) in
      if f > tnow.(0) && f < next_fail.(0) then next_fail.(0) <- f
    done
  in
  advance_fail ();
  let rec loop () =
    if events.Event_heap.len > 0 then begin
      tnow.(0) <- events.Event_heap.keys.(0);
      if tnow.(0) >= next_fail.(0) then begin
        msg_dirty := true;
        advance_fail ()
      end;
      let ev = Event_heap.unsafe_pop events in
      if obs then Obs.incr "sim.events_popped";
      handle ev;
      drain ();
      (* When room frees, in-pipeline data beats new source admissions:
         deferred local hand-offs first, then transfers, then the
         backlog — that priority order is the backpressure.  A transfer
         scan that would find nothing committable is skipped: a send
         port frees only at the event ending its transfer, and every
         other change that can make a transfer committable sets
         [msg_dirty]. *)
      if open_mode then dispatch_local ();
      if !msg_dirty then dispatch_msgs ();
      if open_mode && not shed then dispatch_source ();
      dispatch_procs ();
      loop ()
    end
  in
  loop ();
  let get arr item (id : Replica.id) =
    if dead.((id.task * copies) + id.copy) then None
    else begin
      let v = arr.((item * n_rids) + (id.task * copies) + id.copy) in
      if Float.is_nan v then None else Some v
    end
  in
  let arrivals =
    if open_mode then arr_abs
    else Array.init n_items (fun item -> clock +. (float_of_int item *. period))
  in
  if not open_mode then Array.blit arrivals 0 injections 0 n_items;
  (* Sojourn of each item: the latest over exit tasks of the earliest
     finishing copy, minus the arrival; [None] when some exit task has
     no finished copy.  Loops over unboxed locals, so the pass allocates
     only the result. *)
  let exits = p.p_exits in
  let item_latency =
    Array.init n_items (fun item ->
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
  in
  let messages =
    let rec collect i acc =
      if i < 0 then acc
      else
        collect (i - 1)
          (match st.rs_log.(i) with Some m -> m :: acc | None -> acc)
    in
    collect (!log_len - 1) []
  in
  {
    start_time = get starts;
    finish_time = get finishes;
    item_latency;
    period;
    makespan = makespan.(0);
    messages;
    arrivals;
    injections;
    dropped = !dropped;
    stalled = (if open_mode then n_items - !next_admit else 0);
    peak_queue = !peak_queue;
    stall_time = stall_time.(0);
    faults =
      (if fz then no_faults
       else
         {
           retries = !f_retries;
           backoff_time = f_backoff.(0);
           exec_faults = !f_exec;
           comm_faults = !f_comm;
           exhausted = !f_exhausted;
           exhausted_on;
           slowed_attempts = !f_slowed;
           degraded_transfers = !f_degraded;
         });
  }

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
  let snapshot = config.Run.snapshot in
  let failed = config.Run.failed and timed_failures = config.Run.timed_failures in
  let n_items, period, traffic =
    match config.Run.traffic with
    | Run.Closed { n_items; period } -> (n_items, period, closed_plan)
    | Run.Open { arrival; n_items; rng; queue_bound; policy } ->
        if n_items < 1 then invalid_arg "Engine.simulate: n_items < 1";
        (match queue_bound with
        | Some b when b < 1 -> invalid_arg "Engine.simulate: queue_bound < 1"
        | _ -> ());
        let offsets = Arrival.times ?rng ~n:n_items arrival in
        ( n_items,
          None,
          {
            ot_open = true;
            ot_offsets = offsets;
            ot_bound = Option.value queue_bound ~default:max_int;
            ot_drop = (policy = Run.Drop_newest);
          } )
  in
  Obs.with_span "sim.engine.run" (fun () ->
      Obs.incr "sim.runs";
      if reused then Obs.incr "sim.arena.reuses";
      Obs.touch "sim.arena.creates";
      Obs.touch "sim.arena.reuses";
      Obs.touch "sim.cache.hits";
      Obs.touch "sim.cache.misses";
      Obs.touch "sim.events_popped";
      Obs.touch "sim.compiles";
      Obs.touch "sim.drops";
      Obs.touch "sim.queue.enqueued";
      Obs.touch "sim.queue.blocked";
      Obs.touch "sim.retries";
      Obs.touch "sim.gray.slowdowns";
      Obs.touch "sim.gray.degradations";
      Obs.touch "sim.faults.transient";
      Obs.touch "sim.faults.exhausted";
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
      let snapshot = Option.value snapshot ~default:boot in
      run_compiled_impl ~state:st ~snapshot ~n_items ~period ~failed
        ~timed_failures ~traffic ~record_messages:config.Run.record_messages
        ~faults:config.Run.faults p)

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
