(* Per-replica attributes live in flat arrays indexed [task * (eps+1) +
   copy] so a million-task schedule is a handful of contiguous slabs
   rather than a forest of per-task records. *)
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
  (* Probe scratch, reused by every [evaluate] and [admission]. *)
  recv_probe : Timeline.probe;
  send_probe : Timeline.probe array; (* per sender processor *)
  out_sum : float array;
      (* per source processor: its outgoing time in the admission being
         judged; nan outside it *)
  out_procs : int array; (* those source processors, in first-transfer order *)
}

let create (prob : Types.problem) =
  let n_procs = Platform.size prob.platform in
  let copies = prob.eps + 1 in
  let slots = Dag.size prob.dag * copies in
  {
    prob;
    mapping = Mapping.create ~dag:prob.dag ~platform:prob.platform ~eps:prob.eps;
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
    recv_probe = Timeline.probe ();
    send_probe = Array.init n_procs (fun _ -> Timeline.probe ());
    out_sum = Array.make n_procs nan;
    out_procs = Array.make n_procs 0;
  }

let problem s = s.prob
let mapping s = s.mapping

let slot s (id : Replica.id) = (id.task * s.copies) + id.copy

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

let host s (id : Replica.id) =
  let p = s.proc_arr.(slot s id) in
  if p < 0 then not_placed "host" id;
  p

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
    (fun acc (pred, ids) ->
      match ids with
      | [] -> acc
      | [ (src : Replica.id) ] -> Bitset.union acc (support s src)
      | first :: rest ->
          let full = List.length ids = Mapping.n_copies s.mapping in
          ignore pred;
          if full then acc
          else
            Bitset.union acc
              (List.fold_left
                 (fun inter (src : Replica.id) -> Bitset.inter inter (support s src))
                 (support s first) rest))
    (Bitset.singleton proc) sources

let send_ready s u = Timeline.busy_until s.send_tl.(u)

type transfer = { tr_src : Replica.id; tr_proc : Platform.proc; tr_dur : float }

type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_transfers : transfer array;
  t_comm_starts : float array;
}

(* Transfers in order of data readiness (source finish, then replica id),
   so the probe is deterministic.  The order is total: no two transfers
   share a source. *)
let ready_before s a b =
  let fa = s.finish_arr.(slot s a.tr_src) and fb = s.finish_arr.(slot s b.tr_src) in
  fa < fb || (fa = fb && Replica.compare_id a.tr_src b.tr_src < 0)

let transfers s ~task ~proc ~sources =
  let plat = s.prob.platform and dag = s.prob.dag in
  let remote = ref [] in
  List.iter
    (fun (pred, ids) ->
      let vol = Dag.volume dag pred task in
      List.iter
        (fun (src : Replica.id) ->
          let sp = host s src in
          if sp <> proc then
            remote :=
              { tr_src = src; tr_proc = sp; tr_dur = Platform.comm_time plat sp proc vol }
              :: !remote)
        ids)
    sources;
  let trs = Array.of_list !remote in
  (* Insertion sort: a placement has a handful of transfers. *)
  for i = 1 to Array.length trs - 1 do
    let tr = trs.(i) and j = ref (i - 1) in
    while !j >= 0 && ready_before s tr trs.(!j) do
      trs.(!j + 1) <- trs.(!j);
      decr j
    done;
    trs.(!j + 1) <- tr
  done;
  trs

type admission = { feasible : bool; penalty : float }

let[@inline] over s current extra = Float.max 0.0 (current +. extra -. s.delta)

(* The outgoing durations are summed per source processor in [out_sum], in
   transfer order, and the penalty adds the overflows of the source
   processors in the order of their first transfer. *)
let admission s ~task ~proc transfers =
  let plat = s.prob.platform and dag = s.prob.dag and l = s.loads in
  let exec = Platform.exec_time plat proc (Dag.exec dag task) in
  let incoming = ref 0.0 and n_out = ref 0 in
  for k = 0 to Array.length transfers - 1 do
    let tr = transfers.(k) in
    incoming := !incoming +. tr.tr_dur;
    let prev = s.out_sum.(tr.tr_proc) in
    if Float.is_nan prev then begin
      s.out_procs.(!n_out) <- tr.tr_proc;
      incr n_out;
      s.out_sum.(tr.tr_proc) <- 0.0 +. tr.tr_dur
    end
    else s.out_sum.(tr.tr_proc) <- prev +. tr.tr_dur
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
  {
    feasible =
      l.Loads.sigma.(proc) +. exec <= slack
      && l.Loads.c_in.(proc) +. !incoming <= slack
      && !out_fits;
    penalty =
      over s l.Loads.sigma.(proc) exec +. over s l.Loads.c_in.(proc) !incoming +. !out_over;
  }

(* The admissible sources of a placement step, flattened: predecessor [k]
   has volume [f_vol.(k)] and its sources at [f_off.(k)] up to
   [f_off.(k + 1)]; each source's finish, stage and host are read once. *)
type floor_data = {
  f_task : Dag.task;
  f_vol : float array;
  f_off : int array;
  f_finish : float array;
  f_stage : int array;
  f_host : int array;
}

let floor_data s ~task sources =
  let dag = s.prob.dag in
  let n_preds = List.length sources in
  let n_srcs = List.fold_left (fun n (_, ids) -> n + List.length ids) 0 sources in
  let fd =
    {
      f_task = task;
      f_vol = Array.make n_preds 0.0;
      f_off = Array.make (n_preds + 1) 0;
      f_finish = Array.make n_srcs 0.0;
      f_stage = Array.make n_srcs 0;
      f_host = Array.make n_srcs 0;
    }
  in
  List.iteri
    (fun k (pred, ids) ->
      fd.f_vol.(k) <- Dag.volume dag pred task;
      List.iteri
        (fun i src ->
          let at = fd.f_off.(k) + i in
          fd.f_finish.(at) <- finish s src;
          fd.f_stage.(at) <- stage s src;
          fd.f_host.(at) <- host s src)
        ids;
      fd.f_off.(k + 1) <- fd.f_off.(k) + List.length ids)
    sources;
  fd

let iter_hosts fd f = Array.iter f fd.f_host

(* Every source set drawing one of the listed replicas per predecessor has
   a stage no lower than the per-predecessor minimum (+1 when remote), and
   its data ready no earlier than the latest per-predecessor minimum
   arrival (finish plus the transfer time, zero when co-located).
   [evaluate] starts the execution at the processor timeline's earliest
   fit after the data is ready, and [earliest_fit] is monotone in [ready],
   so the fit at the data floor floors the finish too. *)
let stage_floor fd ~proc =
  let stg = ref 1 in
  for k = 0 to Array.length fd.f_vol - 1 do
    if fd.f_off.(k + 1) > fd.f_off.(k) then begin
      let st = ref max_int in
      for i = fd.f_off.(k) to fd.f_off.(k + 1) - 1 do
        let rs = if fd.f_host.(i) = proc then fd.f_stage.(i) else fd.f_stage.(i) + 1 in
        if rs < !st then st := rs
      done;
      if !st > !stg then stg := !st
    end
  done;
  !stg

let finish_floor s fd ~proc =
  let plat = s.prob.platform in
  let ready = ref 0.0 in
  for k = 0 to Array.length fd.f_vol - 1 do
    if fd.f_off.(k + 1) > fd.f_off.(k) then begin
      let f = ref infinity in
      for i = fd.f_off.(k) to fd.f_off.(k + 1) - 1 do
        let rf = fd.f_finish.(i) and rp = fd.f_host.(i) in
        if rp = proc then begin
          if rf < !f then f := rf
        end
        else begin
          let arr = rf +. Platform.comm_time plat rp proc fd.f_vol.(k) in
          if arr < !f then f := arr
        end
      done;
      if !f > !ready then ready := !f
    end
  done;
  let exec = Platform.exec_time plat proc (Dag.exec s.prob.dag fd.f_task) in
  Timeline.earliest_fit s.proc_tl.(proc) ~ready:!ready ~duration:exec +. exec

(* Data from co-located sources is available at their finish time; the
   pipeline stage is the max over sources of their stage, +1 for remote
   ones. *)
let rec local_ready s ~proc acc = function
  | [] -> acc
  | (_, ids) :: rest -> local_ready s ~proc (local_ready_of s ~proc acc ids) rest

and local_ready_of s ~proc acc = function
  | [] -> acc
  | src :: rest ->
      let k = slot s src in
      let acc = if s.proc_arr.(k) = proc then Float.max acc (finish s src) else acc in
      local_ready_of s ~proc acc rest

let rec stage_of s ~proc acc = function
  | [] -> acc
  | (_, ids) :: rest -> stage_of s ~proc (stage_of_ids s ~proc acc ids) rest

and stage_of_ids s ~proc acc = function
  | [] -> acc
  | src :: rest ->
      let k = slot s src in
      let st = if s.proc_arr.(k) = proc then s.stage_arr.(k) else s.stage_arr.(k) + 1 in
      stage_of_ids s ~proc (if st > acc then st else acc) rest

let evaluate s ~task ~copy ~proc ~sources ~transfers =
  let plat = s.prob.platform and dag = s.prob.dag in
  (* Place transfers sequentially on probes of the receive port and of the
     send ports of their sources, leaving the committed timelines
     untouched. *)
  let recv_tl = s.recv_tl.(proc) and recv = s.recv_probe in
  let n = Array.length transfers in
  Timeline.clear recv;
  for k = 0 to n - 1 do
    Timeline.clear s.send_probe.(transfers.(k).tr_proc)
  done;
  let starts = Array.make n 0.0 in
  let data_ready = ref (local_ready s ~proc 0.0 sources) in
  for k = 0 to n - 1 do
    let { tr_src; tr_proc = sp; tr_dur = duration } = transfers.(k) in
    let send_tl = s.send_tl.(sp) and send = s.send_probe.(sp) in
    let start =
      Timeline.joint_fit send_tl send recv_tl recv ~ready:(finish s tr_src) ~duration
    in
    Timeline.tentative recv_tl recv ~start ~duration;
    Timeline.tentative send_tl send ~start ~duration;
    starts.(k) <- start;
    data_ready := Float.max !data_ready (start +. duration)
  done;
  let exec = Platform.exec_time plat proc (Dag.exec dag task) in
  let start = Timeline.earliest_fit s.proc_tl.(proc) ~ready:!data_ready ~duration:exec in
  {
    t_task = task;
    t_copy = copy;
    t_proc = proc;
    t_sources = sources;
    t_start = start;
    t_finish = start +. exec;
    t_stage = stage_of s ~proc 1 sources;
    t_transfers = transfers;
    t_comm_starts = starts;
  }

let commit s trial =
  Obs.incr "core.commits";
  let plat = s.prob.platform and dag = s.prob.dag in
  Mapping.assign s.mapping
    {
      Replica.id = { Replica.task = trial.t_task; copy = trial.t_copy };
      proc = trial.t_proc;
      sources = trial.t_sources;
    };
  let exec = Platform.exec_time plat trial.t_proc (Dag.exec dag trial.t_task) in
  (* Charge through the Loads primitives in exactly the historical float
     order (Σ, then per transfer Cᴵ before Cᴼ): schedules are pinned
     bit-identical and float addition is order-sensitive. *)
  Loads.add_exec s.loads trial.t_proc exec;
  Array.iteri
    (fun k { tr_proc = sp; tr_dur = dur; _ } ->
      let start = trial.t_comm_starts.(k) in
      Loads.add_comm s.loads ~src:sp ~dst:trial.t_proc dur;
      Timeline.insert s.recv_tl.(trial.t_proc) ~start ~duration:dur;
      Timeline.insert s.send_tl.(sp) ~start ~duration:dur)
    trial.t_transfers;
  Timeline.insert s.proc_tl.(trial.t_proc) ~start:trial.t_start
    ~duration:(trial.t_finish -. trial.t_start);
  let k = (trial.t_task * s.copies) + trial.t_copy in
  s.finish_arr.(k) <- trial.t_finish;
  s.stage_arr.(k) <- trial.t_stage;
  s.proc_arr.(k) <- trial.t_proc;
  s.support_arr.(k) <-
    support_of_sources s ~proc:trial.t_proc ~sources:trial.t_sources
