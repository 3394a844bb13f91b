module Pset = Bitset

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
  support_arr : Pset.t array; (* [task * copies + copy]; kill sets *)
  scratch_out : (int, float) Hashtbl.t;
      (* reusable per-source-proc accumulator for [admission]; reset (not
         recreated) so the fold order matches a fresh 8-slot table and the
         best-effort penalty sums stay bit-identical *)
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
    support_arr = Array.make slots Pset.empty;
    scratch_out = Hashtbl.create 8;
  }

let problem s = s.prob
let mapping s = s.mapping

let slot s (id : Replica.id) = (id.task * s.copies) + id.copy

let finish s (id : Replica.id) =
  let f = s.finish_arr.(slot s id) in
  if Float.is_nan f then
    invalid_arg
      (Printf.sprintf "State.finish: %s not placed" (Replica.id_to_string id));
  f

let stage s (id : Replica.id) =
  let st = s.stage_arr.(slot s id) in
  if st = 0 then
    invalid_arg
      (Printf.sprintf "State.stage: %s not placed" (Replica.id_to_string id));
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
    (fun acc (pred, ids) ->
      match ids with
      | [] -> acc
      | [ (src : Replica.id) ] -> Pset.union acc (support s src)
      | first :: rest ->
          let full = List.length ids = Mapping.n_copies s.mapping in
          ignore pred;
          if full then acc
          else
            Pset.union acc
              (List.fold_left
                 (fun inter (src : Replica.id) -> Pset.inter inter (support s src))
                 (support s first) rest))
    (Pset.singleton proc) sources

let send_ready s u = Timeline.busy_until s.send_tl.(u)

type trial = {
  t_task : Dag.task;
  t_copy : int;
  t_proc : Platform.proc;
  t_sources : (Dag.task * Replica.id list) list;
  t_start : float;
  t_finish : float;
  t_stage : int;
  t_comms : (Replica.id * float * float * float) list;
}

type transfer = { tr_src : Replica.id; tr_proc : Platform.proc; tr_dur : float }

let proc_of_replica s (id : Replica.id) =
  (Mapping.replica_exn s.mapping id.task id.copy).Replica.proc

(* Off-processor transfers in order of data readiness, so the probe is
   deterministic. *)
let transfers s ~task ~proc ~sources =
  let plat = s.prob.platform and dag = s.prob.dag in
  List.concat_map
    (fun (pred, ids) ->
      let vol = Dag.volume dag pred task in
      List.filter_map
        (fun (src : Replica.id) ->
          let sp = proc_of_replica s src in
          if sp = proc then None
          else
            Some
              { tr_src = src; tr_proc = sp; tr_dur = Platform.comm_time plat sp proc vol })
        ids)
    sources
  |> List.sort (fun a b ->
         match Float.compare (finish s a.tr_src) (finish s b.tr_src) with
         | 0 -> Replica.compare_id a.tr_src b.tr_src
         | c -> c)

type admission = { feasible : bool; penalty : float }

(* The outgoing durations are summed per source processor in a hash table
   and folded in its order: the penalty is a float sum, so that order is
   part of the pinned schedules. *)
let admission s ~task ~proc transfers =
  let plat = s.prob.platform and dag = s.prob.dag and l = s.loads in
  let exec = Platform.exec_time plat proc (Dag.exec dag task) in
  let incoming = List.fold_left (fun acc tr -> acc +. tr.tr_dur) 0.0 transfers in
  let outgoing = s.scratch_out in
  Hashtbl.reset outgoing;
  List.iter
    (fun tr ->
      let prev = try Hashtbl.find outgoing tr.tr_proc with Not_found -> 0.0 in
      Hashtbl.replace outgoing tr.tr_proc (prev +. tr.tr_dur))
    transfers;
  let slack = s.delta *. (1.0 +. 1e-9) in
  let over current extra = Float.max 0.0 (current +. extra -. s.delta) in
  {
    feasible =
      l.Loads.sigma.(proc) +. exec <= slack
      && l.Loads.c_in.(proc) +. incoming <= slack
      && Hashtbl.fold
           (fun sp extra ok -> ok && l.Loads.c_out.(sp) +. extra <= slack)
           outgoing true;
    penalty =
      over l.Loads.sigma.(proc) exec
      +. over l.Loads.c_in.(proc) incoming
      +. Hashtbl.fold
           (fun sp extra acc -> acc +. over l.Loads.c_out.(sp) extra)
           outgoing 0.0;
  }

type floor_data = {
  f_task : Dag.task;
  f_preds : (float * (float * int * Platform.proc) list) list;
      (* per predecessor: volume, and (finish, stage, host) per source *)
}

let floor_data s ~task sources =
  let dag = s.prob.dag in
  {
    f_task = task;
    f_preds =
      List.map
        (fun (pred, ids) ->
          ( Dag.volume dag pred task,
            List.map
              (fun (src : Replica.id) ->
                (finish s src, stage s src, proc_of_replica s src))
              ids ))
        sources;
  }

(* Every source set drawing one of the listed replicas per predecessor has
   its data ready no earlier than the latest per-predecessor minimum
   arrival (finish plus the transfer time, zero when co-located), and a
   stage no lower than the per-predecessor minimum (+1 when remote).
   [evaluate] starts the execution at the processor timeline's earliest
   fit after the data is ready, and [earliest_fit] is monotone in [ready],
   so the fit at the data floor floors the finish too. *)
let floors s fd ~proc =
  let plat = s.prob.platform in
  let ready = ref 0.0 and stg = ref 1 in
  List.iter
    (fun (vol, reps) ->
      let f = ref infinity and st = ref max_int in
      List.iter
        (fun (rf, rs, rp) ->
          if rp = proc then begin
            if rf < !f then f := rf;
            if rs < !st then st := rs
          end
          else begin
            let arr = rf +. Platform.comm_time plat rp proc vol in
            if arr < !f then f := arr;
            if rs + 1 < !st then st := rs + 1
          end)
        reps;
      if reps <> [] then begin
        if !f > !ready then ready := !f;
        if !st > !stg then stg := !st
      end)
    fd.f_preds;
  let exec = Platform.exec_time plat proc (Dag.exec s.prob.dag fd.f_task) in
  (!stg, Timeline.earliest_fit s.proc_tl.(proc) ~ready:!ready ~duration:exec +. exec)

(* Earliest start >= ready fitting simultaneously in two probed timelines:
   iterate the two earliest-fit maps until they agree (both are monotone,
   so this terminates at their least common fixpoint). *)
let joint_fit a pa b pb ~ready ~duration =
  let rec settle candidate =
    let ca = Timeline.earliest_fit ~probe:pa a ~ready:candidate ~duration in
    let cb = Timeline.earliest_fit ~probe:pb b ~ready:ca ~duration in
    if cb = candidate then candidate else settle cb
  in
  settle (Timeline.earliest_fit ~probe:pa a ~ready ~duration)

let evaluate s ~task ~copy ~proc ~sources ~transfers =
  Obs.incr "core.placement_probes";
  let plat = s.prob.platform and dag = s.prob.dag in
  (* Place transfers sequentially on probes of the receive port and of the
     send ports of their sources, leaving the committed timelines
     untouched.  The handful of distinct source processors rides in an
     assoc list: probes run a billion times at scale and must not allocate
     hash tables. *)
  let recv_tl = s.recv_tl.(proc) in
  let recv = ref [] in
  let sends = ref [] in
  let send_of p = Option.value (List.assq_opt p !sends) ~default:[] in
  let comms =
    List.map
      (fun { tr_src = src; tr_proc = sp; tr_dur = dur } ->
        let ready = finish s src in
        let send = send_of sp in
        let start =
          joint_fit s.send_tl.(sp) send recv_tl !recv ~ready ~duration:dur
        in
        recv := Timeline.tentative ~probe:!recv recv_tl ~start ~duration:dur;
        sends :=
          (sp, Timeline.tentative ~probe:send s.send_tl.(sp) ~start ~duration:dur)
          :: List.remove_assq sp !sends;
        (src, start, dur, start +. dur))
      transfers
  in
  (* Data from co-located sources is available at their finish time. *)
  let local_ready =
    List.fold_left
      (fun acc (_, ids) ->
        List.fold_left
          (fun acc (src : Replica.id) ->
            if proc_of_replica s src = proc then Float.max acc (finish s src)
            else acc)
          acc ids)
      0.0 sources
  in
  let data_ready =
    List.fold_left (fun acc (_, _, _, arrival) -> Float.max acc arrival)
      local_ready comms
  in
  let exec = Platform.exec_time plat proc (Dag.exec dag task) in
  let start = Timeline.earliest_fit s.proc_tl.(proc) ~ready:data_ready ~duration:exec in
  (* Pipeline stage: max over sources of their stage, +1 for remote ones. *)
  let t_stage =
    List.fold_left
      (fun acc (_, ids) ->
        List.fold_left
          (fun acc (src : Replica.id) ->
            let eta = if proc_of_replica s src = proc then 0 else 1 in
            max acc (s.stage_arr.(slot s src) + eta))
          acc ids)
      1 sources
  in
  {
    t_task = task;
    t_copy = copy;
    t_proc = proc;
    t_sources = sources;
    t_start = start;
    t_finish = start +. exec;
    t_stage;
    t_comms = comms;
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
  List.iter
    (fun ((src : Replica.id), start, dur, _) ->
      let sp = proc_of_replica s src in
      Loads.add_comm s.loads ~src:sp ~dst:trial.t_proc dur;
      Timeline.insert s.recv_tl.(trial.t_proc) ~start ~duration:dur;
      Timeline.insert s.send_tl.(sp) ~start ~duration:dur)
    trial.t_comms;
  Timeline.insert s.proc_tl.(trial.t_proc) ~start:trial.t_start
    ~duration:(trial.t_finish -. trial.t_start);
  let k = (trial.t_task * s.copies) + trial.t_copy in
  s.finish_arr.(k) <- trial.t_finish;
  s.stage_arr.(k) <- trial.t_stage;
  s.support_arr.(k) <-
    support_of_sources s ~proc:trial.t_proc ~sources:trial.t_sources
