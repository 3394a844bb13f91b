open Test_support

(* Property-based tests.  Structured inputs (graphs, platforms, mappings)
   are derived from integer seeds so every case is reproducible and
   shrinking stays meaningful on the seed. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let layered_of_seed ?(max_tasks = 40) seed =
  let rng = Rng.create ~seed in
  let tasks = 2 + Rng.int rng (max_tasks - 1) in
  Random_dag.layered ~rng ~tasks ()

let seed_arb = QCheck.int_range 0 100_000

(* Byte-for-byte float equality: NaN = NaN, and -0.0 <> 0.0, which is
   exactly the determinism contract of Parallel.map_seeded. *)
let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* ------------------------------------------------------------------ *)
(* Graph properties                                                    *)
(* ------------------------------------------------------------------ *)

let prop_topo_order_valid =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:100
    seed_arb (fun seed ->
      let g = layered_of_seed seed in
      let position = Array.make (Dag.size g) (-1) in
      Array.iteri (fun i t -> position.(t) <- i) (Topo.order g);
      Dag.fold_edges g ~init:true ~f:(fun acc s d _ ->
          acc && position.(s) < position.(d)))

let prop_depth_bounded =
  QCheck.Test.make ~name:"depth < size and height mirrors reverse depth"
    ~count:100 seed_arb (fun seed ->
      let g = layered_of_seed seed in
      let depth = Topo.depth g and height = Topo.height g in
      let rev_depth = Topo.depth (Dag.reverse g) in
      Array.for_all (fun d -> d < Dag.size g) depth
      && Array.for_all2 ( = ) height rev_depth)

let prop_width_bounds =
  QCheck.Test.make ~name:"layer bound <= exact width <= size" ~count:50
    seed_arb (fun seed ->
      let g = layered_of_seed ~max_tasks:25 seed in
      let exact = Width.exact g in
      Width.layer_lower_bound g <= exact && exact <= Dag.size g && exact >= 1)

let prop_priority_peak_is_critical_path =
  QCheck.Test.make ~name:"max(tl+bl) equals the critical path length"
    ~count:100 seed_arb (fun seed ->
      let g = layered_of_seed seed in
      let w = Levels.exec_weights g in
      let p = Levels.priority g w in
      let cp = Levels.critical_path_length g w in
      let peak = Array.fold_left Float.max neg_infinity p in
      Float.abs (peak -. cp) <= 1e-9 *. Float.max 1.0 cp)

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse is an involution on the edge set" ~count:100
    seed_arb (fun seed ->
      let g = layered_of_seed seed in
      let rr = Dag.reverse (Dag.reverse g) in
      Dag.fold_edges g ~init:true ~f:(fun acc s d v ->
          acc && Dag.has_edge rr s d && Dag.volume rr s d = v))

let prop_sp_generator_recognized =
  QCheck.Test.make ~name:"generated series-parallel graphs are recognized"
    ~count:50 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let tasks = 2 + Rng.int rng 40 in
      Sp.is_series_parallel (Random_dag.series_parallel ~rng ~tasks ()))

(* ------------------------------------------------------------------ *)
(* Timeline properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_timeline_no_overlap =
  QCheck.Test.make ~name:"earliest-fit insertions never overlap" ~count:100
    QCheck.(pair seed_arb (int_range 1 30))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let tl = Timeline.create () in
      for _ = 1 to n do
        let ready = Rng.float rng 20.0 and duration = 0.1 +. Rng.float rng 5.0 in
        let start = Timeline.earliest_fit tl ~ready ~duration in
        Timeline.insert tl ~start ~duration
      done;
      let rec disjoint = function
        | (_, f) :: ((s, _) :: _ as rest) -> f <= s +. 1e-9 && disjoint rest
        | _ -> true
      in
      disjoint (Timeline.intervals tl))

let prop_timeline_busy_sum =
  QCheck.Test.make ~name:"total busy time is the sum of inserted durations"
    ~count:100
    QCheck.(pair seed_arb (int_range 1 20))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let tl = Timeline.create () and total = ref 0.0 in
      for _ = 1 to n do
        let duration = 0.5 +. Rng.float rng 3.0 in
        let start = Timeline.earliest_fit tl ~ready:(Rng.float rng 10.0) ~duration in
        Timeline.insert tl ~start ~duration;
        total := !total +. duration
      done;
      let busy =
        List.fold_left (fun acc (s, f) -> acc +. (f -. s)) 0.0
          (Timeline.intervals tl)
      in
      Float.abs (busy -. !total) <= 1e-6)

(* A probe is the committed timeline plus its own intervals: placing a
   random probe never writes the timeline, and fitting against the probe
   answers exactly as fitting against a timeline with those intervals
   inserted. *)
(* The probe path's query record, from float arguments. *)
let tentative_at t p ~start ~duration =
  Timeline.tentative t p { Timeline.ready = start; duration; start }

let joint_fit_at a pa b pb ~ready ~duration =
  let q = { Timeline.ready; duration; start = 0.0 } in
  Timeline.joint_fit a pa b pb q;
  q.start

let prop_timeline_probe_is_virtual_insert =
  QCheck.Test.make ~name:"a probe fits like an insert and leaves the timeline"
    ~count:200
    QCheck.(triple seed_arb (int_range 0 20) (int_range 1 6))
    (fun (seed, n, k) ->
      let rng = Rng.create ~seed in
      let random_job () = (Rng.float rng 30.0, 0.1 +. Rng.float rng 4.0) in
      (* [tl] gets the committed intervals only, [inserted] those and the
         probe's as real inserts. *)
      let tl = Timeline.create () and inserted = Timeline.create () in
      for _ = 1 to n do
        let ready, duration = random_job () in
        let start = Timeline.earliest_fit tl ~ready ~duration in
        Timeline.insert tl ~start ~duration;
        Timeline.insert inserted ~start ~duration
      done;
      let committed = Timeline.intervals tl in
      let probe = Timeline.probe () in
      for _ = 1 to k do
        let ready, duration = random_job () in
        let start = Timeline.earliest_fit ~probe tl ~ready ~duration in
        tentative_at tl probe ~start ~duration;
        Timeline.insert inserted ~start ~duration
      done;
      Timeline.intervals tl = committed
      && List.for_all
           (fun _ ->
             let ready = Rng.float rng 40.0 and duration = Rng.float rng 5.0 in
             Timeline.earliest_fit ~probe tl ~ready ~duration
             = Timeline.earliest_fit inserted ~ready ~duration)
           (List.init 30 Fun.id))

(* The naive oracle of the interval contract: every interval in one list
   in start order, committed before probe on equal starts, walked from its
   head.  No search and no step-back, so a sub-slack interval nested in a
   longer one cannot hide the longer one's finish. *)
let slack = 1e-12
let conflicts (s, f) (s', f') = f > s' +. slack && f' > s +. slack

(* [iv] placed after every interval starting at or before it, as a
   timeline stores it. *)
let rec place ((start, _) as iv) = function
  | ((s, _) as held) :: rest when s <= start -> held :: place iv rest
  | later -> iv :: later

let list_fit committed probe ~ready ~duration =
  let rec scan candidate = function
    | [] -> candidate
    | (s, f) :: rest ->
        if candidate +. duration <= s +. slack then candidate
        else scan (Float.max candidate f) rest
  in
  scan ready (List.merge (fun (a, _) (b, _) -> compare a b) committed probe)

(* The joint fit as the scheduler computed it before [Timeline.joint_fit]:
   alternate two fits, [a] then [b], until a round trip moves nothing. *)
let alternation fit_a fit_b ~ready =
  let rec settle candidate =
    let cb = fit_b (fit_a candidate) in
    if cb = candidate then candidate else settle cb
  in
  settle (fit_a ready)

(* Interval edges and ready times on a half-unit lattice around 0, nudged
   inside and just outside the 1e-12 slack, with -0.0, +0.0 and
   [Float.max_float] among them. *)
let edge_time rng =
  match Rng.int rng 12 with
  | 0 -> -0.0
  | 1 -> 0.0
  | 2 -> Float.max_float
  | _ ->
      let nudge = [| 0.0; 4e-13; -4e-13; 1e-12; -1e-12; 3e-12 |] in
      (0.5 *. float_of_int (Rng.int rng 24 - 2)) +. nudge.(Rng.int rng 6)

let edge_duration rng =
  [| 0.0; 5e-13; 1e-12; 0.5; 0.5; 1.0; 1.5; 3.0 |].(Rng.int rng 8)

let prop_fits_match_the_list_oracle =
  QCheck.Test.make
    ~name:"loop fits and the joint fit match the list oracle bit for bit"
    ~count:300
    QCheck.(pair seed_arb (int_range 0 40))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      (* Committed intervals where inserts succeed: they may touch or
         overlap inside the slack. *)
      let committed () =
        let t = Timeline.create () in
        for _ = 1 to n do
          let start = edge_time rng and duration = edge_duration rng in
          try Timeline.insert t ~start ~duration with Invalid_argument _ -> ()
        done;
        t
      in
      let a = committed () and b = committed () in
      let pa = Timeline.probe () and pb = Timeline.probe () in
      let la = ref [] and lb = ref [] in
      let aa = Timeline.intervals a and ab = Timeline.intervals b in
      let tentative t p mirror ~start ~duration =
        match tentative_at t p ~start ~duration with
        | () when start +. duration > start ->
            mirror := place (start, start +. duration) !mirror
        | () | (exception Invalid_argument _) -> ()
      in
      List.for_all
        (fun _ ->
          let ready = edge_time rng and duration = edge_duration rng in
          let fit = Timeline.earliest_fit ~probe:pa a ~ready ~duration in
          let joint = joint_fit_at a pa b pb ~ready ~duration in
          let ok =
            float_bits_equal fit (list_fit aa !la ~ready ~duration)
            && float_bits_equal joint
                 (alternation ~ready
                    (fun ready -> Timeline.earliest_fit ~probe:pa a ~ready ~duration)
                    (fun ready -> Timeline.earliest_fit ~probe:pb b ~ready ~duration))
            && float_bits_equal joint
                 (alternation ~ready
                    (fun ready -> list_fit aa !la ~ready ~duration)
                    (fun ready -> list_fit ab !lb ~ready ~duration))
          in
          (* Book the slot on both probes, as a transfer probe does. *)
          tentative a pa la ~start:joint ~duration;
          tentative b pb lb ~start:joint ~duration;
          ok)
        (List.init 10 Fun.id))

(* A timeline with its probe, and the oracle's copy of both. *)
type mirrored = {
  tl : Timeline.t;
  pr : Timeline.probe;
  mutable held : (float * float) list;
  mutable booked : (float * float) list;
}

(* Random raw inserts and fits, first committed, then booked on the
   probes, with starts and ready times often nested in the first or last
   slack of an interval already held and durations at and below the
   slack.  Every raw insert is accepted exactly when it is empty (its
   finish not after its start) or conflicts with nothing held, and only a
   non-empty one is held; every fit and joint fit answers as the naive oracle does
   and is accepted where it is booked, no two held intervals conflict, and
   [busy_until] is the latest committed finish. *)
let prop_interval_contract =
  QCheck.Test.make
    ~name:"the timeline interval contract holds against the naive list oracle"
    ~count:500
    QCheck.(triple seed_arb (int_range 1 30) (int_range 0 10))
    (fun (seed, n, k) ->
      let rng = Rng.create ~seed in
      let fresh () =
        { tl = Timeline.create (); pr = Timeline.probe (); held = []; booked = [] }
      in
      let a = fresh () and b = fresh () and ok = ref true in
      let expect c = if not c then ok := false in
      let time () =
        match a.held @ a.booked @ b.held @ b.booked with
        | _ :: _ as ivs when Rng.bool rng 0.5 ->
            let s, f = Rng.choose rng ivs and inside = Rng.float rng slack in
            if Rng.bool rng 0.5 then s +. inside else f -. inside
        | _ -> edge_time rng
      in
      let duration () =
        [| 0.0; 1e-13; 4e-13; 1e-12; 0.5; 1.0; 2.5 |].(Rng.int rng 7)
      in
      let hold ~commit x ~start ~duration =
        let iv = (start, start +. duration) in
        let empty = not (snd iv > start) in
        let accepted =
          match
            if commit then Timeline.insert x.tl ~start ~duration
            else tentative_at x.tl x.pr ~start ~duration
          with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        expect
          (accepted
          = (empty || not (List.exists (conflicts iv) (x.held @ x.booked))));
        if accepted && not empty then
          if commit then x.held <- place iv x.held
          else x.booked <- place iv x.booked;
        accepted
      in
      let oracle x ~duration ready = list_fit x.held x.booked ~ready ~duration in
      let step ~commit =
        let ready = time () and duration = duration () in
        match Rng.int rng 3 with
        | 0 ->
            let x = if Rng.bool rng 0.5 then a else b in
            ignore (hold ~commit x ~start:ready ~duration)
        | 1 ->
            let start = Timeline.earliest_fit ~probe:a.pr a.tl ~ready ~duration in
            expect (float_bits_equal start (oracle a ~duration ready));
            expect (hold ~commit a ~start ~duration)
        | _ ->
            let start = joint_fit_at a.tl a.pr b.tl b.pr ~ready ~duration in
            expect
              (float_bits_equal start
                 (alternation ~ready (oracle a ~duration) (oracle b ~duration)));
            expect (hold ~commit a ~start ~duration);
            expect (hold ~commit b ~start ~duration)
      in
      for _ = 1 to n do
        step ~commit:true
      done;
      for _ = 1 to k do
        step ~commit:false
      done;
      let rec pairwise = function
        | [] -> true
        | iv :: rest -> (not (List.exists (conflicts iv) rest)) && pairwise rest
      in
      let busy x =
        match x.held with
        | [] -> 0.0
        | ivs -> List.fold_left (fun m (_, f) -> Float.max m f) neg_infinity ivs
      in
      !ok
      && pairwise (a.held @ a.booked)
      && pairwise (b.held @ b.booked)
      && float_bits_equal (Timeline.busy_until a.tl) (busy a)
      && float_bits_equal (Timeline.busy_until b.tl) (busy b))

(* ------------------------------------------------------------------ *)
(* Event heap vs a sorted-list model                                   *)
(* ------------------------------------------------------------------ *)

let prop_heap_matches_model =
  QCheck.Test.make ~name:"event heap pops like a stable sorted list"
    ~count:200
    QCheck.(list (option (int_range 0 20)))
    (fun ops ->
      (* [Some k] inserts key k with its insertion number as the value,
         [None] pops; the model is a list sorted by (key, insertion
         number), so ties must come out first-in first-out. *)
      let h = Event_heap.create () in
      let model = ref [] and seq = ref 0 and ok = ref true in
      List.iter
        (function
          | Some k ->
              Fixtures.heap_add h (float_of_int k) !seq;
              model := List.merge compare !model [ (float_of_int k, !seq) ];
              incr seq
          | None -> (
              match !model with
              | [] -> ok := !ok && Event_heap.is_empty h
              | top :: rest ->
                  let key = h.Event_heap.keys.(0) in
                  ok := !ok && (key, Event_heap.unsafe_pop h) = top;
                  model := rest))
        ops;
      !ok && Fixtures.heap_drain h = !model)

(* ------------------------------------------------------------------ *)
(* Bitsets vs the Set.Make (Int) reference                             *)
(* ------------------------------------------------------------------ *)

(* The packed bitset replaced [Set.Make (Int)] in the kill-set hot path;
   every operation must keep agreeing with the balanced-tree reference on
   the same element lists. *)
module IntSet = Set.Make (Int)

let universe = 63

let elems_of_seed ?(salt = 0) seed =
  let rng = Rng.create ~seed:(seed + salt) in
  List.init (Rng.int rng 40) (fun _ -> Rng.int rng universe)

let prop_bitset_matches_reference =
  QCheck.Test.make
    ~name:"bitset algebra agrees with the Set.Make (Int) reference" ~count:200
    seed_arb (fun seed ->
      let xs = elems_of_seed seed and ys = elems_of_seed ~salt:7919 seed in
      let a = Bitset.of_list xs and b = Bitset.of_list ys in
      let ra = IntSet.of_list xs and rb = IntSet.of_list ys in
      let agrees op rop =
        Bitset.elements (op a b) = IntSet.elements (rop ra rb)
      in
      agrees Bitset.union IntSet.union
      && agrees Bitset.inter IntSet.inter
      && agrees Bitset.diff IntSet.diff
      && Bitset.subset a b = IntSet.subset ra rb
      && Bitset.disjoint a b = IntSet.disjoint ra rb
      && Bitset.cardinal a = IntSet.cardinal ra
      && Bitset.equal a b = IntSet.equal ra rb
      && Bitset.min_elt a = IntSet.min_elt_opt ra
      && Bitset.elements a = IntSet.elements ra
      && Bitset.fold List.cons a [] = IntSet.fold List.cons ra [])

(* Sets of different word lengths (elements up to 199), so the count
   meets a shorter and a longer right operand. *)
let prop_bitset_diff_cardinal =
  QCheck.Test.make ~name:"diff_cardinal a b counts diff a b" ~count:200
    seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let set () =
        let top = 1 + Rng.int rng 200 in
        Bitset.of_list (List.init (Rng.int rng 60) (fun _ -> Rng.int rng top))
      in
      let a = set () in
      let b = set () in
      Bitset.diff_cardinal a b = Bitset.cardinal (Bitset.diff a b)
      && Bitset.diff_cardinal b a = Bitset.cardinal (Bitset.diff b a))

let prop_bitset_complement_reference =
  QCheck.Test.make
    ~name:"complement matches the dense-universe set difference" ~count:200
    seed_arb (fun seed ->
      let xs = elems_of_seed seed in
      let full = List.init universe Fun.id in
      Bitset.elements (Bitset.complement ~universe (Bitset.of_list xs))
      = IntSet.elements (IntSet.diff (IntSet.of_list full) (IntSet.of_list xs)))

let prop_bitset_complement_involution =
  QCheck.Test.make ~name:"complement is an involution on the universe"
    ~count:200 seed_arb (fun seed ->
      let s = Bitset.of_list (elems_of_seed seed) in
      let cc = Bitset.complement ~universe (Bitset.complement ~universe s) in
      Bitset.equal cc s
      && Bitset.cardinal (Bitset.complement ~universe s)
         = universe - Bitset.cardinal s)

let prop_bitset_inclusion_exclusion =
  QCheck.Test.make ~name:"|A union B| = |A| + |B| - |A inter B|" ~count:200
    seed_arb (fun seed ->
      let a = Bitset.of_list (elems_of_seed seed)
      and b = Bitset.of_list (elems_of_seed ~salt:104729 seed) in
      Bitset.cardinal (Bitset.union a b)
      = Bitset.cardinal a + Bitset.cardinal b
        - Bitset.cardinal (Bitset.inter a b))

(* ------------------------------------------------------------------ *)
(* Calibration properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_calibration_exact =
  QCheck.Test.make ~name:"calibrated instances hit the requested granularity"
    ~count:40
    QCheck.(pair seed_arb (int_range 1 20))
    (fun (seed, tenths) ->
      let g = layered_of_seed seed in
      let target = 0.1 *. float_of_int tenths in
      let plat = Fixtures.hetero4 in
      let g' = Calibrate.calibrated g plat ~granularity:target in
      Float.abs (Metrics.granularity g' plat -. target) <= 1e-6 *. target)

(* ------------------------------------------------------------------ *)
(* Scheduling properties: the heart of the suite                       *)
(* ------------------------------------------------------------------ *)

let small_problem_of_seed seed =
  let rng = Rng.create ~seed in
  let tasks = 4 + Rng.int rng 25 in
  let dag = Random_dag.layered ~rng ~tasks () in
  let m = 4 + Rng.int rng 6 in
  let speeds = Array.init m (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:1.0) in
  let bw = Array.make_matrix m m 1.0 in
  for k = 0 to m - 1 do
    for h = k + 1 to m - 1 do
      let b = Rng.uniform rng ~lo:1.0 ~hi:2.0 in
      bw.(k).(h) <- b;
      bw.(h).(k) <- b
    done
  done;
  let plat = Platform.create ~speeds ~bandwidth:bw () in
  let dag = Calibrate.calibrated dag plat ~granularity:(0.4 +. Rng.float rng 1.6) in
  let eps = Rng.int rng (min 3 (m - 1) + 1) in
  (* a generous period so strict mode succeeds often *)
  let throughput =
    1.0 /. (4.0 *. float_of_int (eps + 1) *. float_of_int tasks /. float_of_int m)
  in
  Types.problem ~dag ~platform:plat ~eps ~throughput

let prop_ltf_valid =
  QCheck.Test.make
    ~name:"strict LTF schedules are complete, feasible and eps-tolerant"
    ~count:60 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Ltf.schedule prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m -> Validate.all m ~throughput:prob.Types.throughput = [])

let prop_rltf_valid =
  QCheck.Test.make
    ~name:"strict R-LTF schedules are complete, feasible and eps-tolerant"
    ~count:60 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Rltf.schedule prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m -> Validate.all m ~throughput:prob.Types.throughput = [])

let prop_best_effort_tolerant =
  QCheck.Test.make
    ~name:"best-effort schedules always keep the tolerance guarantee"
    ~count:60 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      let check outcome =
        match outcome with
        | Error _ -> true (* structural dead ends are allowed, rare *)
        | Ok m ->
            Validate.structure m = [] && Validate.fault_tolerance m = []
      in
      check (Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob)
      && check (Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob))

(* Condition (1) and the overload penalty recomputed from the probed
   candidate's own transfers: the outgoing time summed per source
   processor (read from the mapping), and the overflows added in the
   order of each processor's first transfer. *)
let admission_of_probe state (c : State.probe) =
  let prob = State.problem state and l = State.loads state in
  let delta = Types.period prob and copies = prob.Types.eps + 1 in
  let exec =
    Platform.exec_time prob.Types.platform c.p_proc (Dag.exec prob.Types.dag c.p_task)
  in
  let transfers = List.init c.p_n (fun k -> (c.p_src.(k), c.p_dur.(k))) in
  let incoming = List.fold_left (fun acc (_, dur) -> acc +. dur) 0.0 transfers in
  let outgoing =
    List.fold_left
      (fun acc (src, dur) ->
        let sp =
          (Mapping.replica_exn (State.mapping state) (src / copies) (src mod copies)).proc
        in
        match List.assoc_opt sp acc with
        | None -> acc @ [ (sp, 0.0 +. dur) ]
        | Some prev -> List.map (fun (p, d) -> (p, if p = sp then prev +. dur else d)) acc)
      [] transfers
  in
  let slack = delta *. (1.0 +. 1e-9) in
  let over current extra = Float.max 0.0 (current +. extra -. delta) in
  ( l.Loads.sigma.(c.p_proc) +. exec <= slack
    && l.Loads.c_in.(c.p_proc) +. incoming <= slack
    && List.for_all (fun (sp, extra) -> l.Loads.c_out.(sp) +. extra <= slack) outgoing,
    over l.Loads.sigma.(c.p_proc) exec
    +. over l.Loads.c_in.(c.p_proc) incoming
    +. List.fold_left
         (fun acc (sp, extra) -> acc +. over l.Loads.c_out.(sp) extra)
         0.0 outgoing )

(* Drive [State] through a whole schedule by hand: every replica tries
   every free processor with two source rows (full groups, and one
   replica per predecessor), and the best probe under the mode's
   (penalty, rank) key is committed.  Every candidate is probed, and
   checked against what the scheduler knows before the probe: the floors
   of each admissible source row it draws from never exceed the probe's
   stage and finish (the finish floor is judged with the probe swapped in
   as the incumbent), and the admission equals, bit for bit, the one
   recomputed from the probe's transfers.  Returns false on the first
   violation. *)
let pre_probe_exact prob ~(rank : Chunk_scheduler.rank) ~best_effort =
  let state = State.create prob in
  let dag = prob.Types.dag and mapping = State.mapping state in
  let exact = ref true in
  let place task copy =
    State.start_step state ~task ~copy;
    let preds = Array.of_list (List.map fst (Dag.preds dag task)) in
    let groups = Array.make (Array.length preds) (-1) in
    let best = ref None in
    for proc = 0 to Platform.size prob.Types.platform - 1 do
      if not (Mapping.mapped mapping task proc) then begin
        let single =
          Array.map
            (fun pred ->
              State.slot state
                { Replica.task = pred; copy = proc mod (prob.Types.eps + 1) })
            preds
        in
        List.iter
          (fun (row, floors) ->
            State.transfers state ~proc row;
            State.admission state;
            State.evaluate state;
            State.swap state;
            let probe = State.incumbent state in
            List.iter
              (fun floor ->
                State.set_floor state floor;
                if State.stage_floor state ~proc > probe.p_stage
                   || State.finish_floor_above state ~proc
                then exact := false)
              floors;
            State.swap state;
            let c = State.candidate state in
            let feasible, penalty = admission_of_probe state c in
            if feasible <> c.p_feasible || not (float_bits_equal penalty c.p_at.penalty)
            then exact := false;
            if best_effort || c.p_feasible then begin
              let score =
                match rank with
                | Chunk_scheduler.Finish_time -> (c.p_at.finish, 0.0)
                | Stage_then_finish -> (float_of_int c.p_stage, c.p_at.finish)
              in
              let key = ((if best_effort then c.p_at.penalty else 0.0), score) in
              match !best with
              | Some k when k <= key -> ()
              | _ ->
                  best := Some key;
                  State.swap state
            end)
          [ (groups, [ groups ]); (single, [ groups; single ]) ]
      end
    done;
    Option.map (fun _ -> State.commit state) !best
  in
  (try
     Array.iter
       (fun task ->
         for copy = 0 to prob.Types.eps do
           if Option.is_none (place task copy) then raise Exit
         done)
       (Topo.order dag)
   with Exit -> ());
  !exact

let prop_pre_probe_exact =
  QCheck.Test.make
    ~name:"pre-probe floors and admission are exact under both modes and ranks"
    ~count:40 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      (* four times the generous rate, so best effort meets overloads *)
      let tight =
        Types.problem ~dag:prob.Types.dag ~platform:prob.Types.platform
          ~eps:prob.Types.eps ~throughput:(4.0 *. prob.Types.throughput)
      in
      List.for_all
        (fun (prob, best_effort) ->
          List.for_all
            (fun rank -> pre_probe_exact prob ~rank ~best_effort)
            [ Chunk_scheduler.Finish_time; Stage_then_finish ])
        [ (prob, false); (tight, true) ])

let prop_effective_depth_bounded =
  QCheck.Test.make
    ~name:"effective pipeline depth never exceeds the official stage count"
    ~count:40 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m -> (
          match Replica_graph.depth (Replica_graph.compile m) with
          | None -> false
          | Some depth -> depth >= 1 && depth <= Metrics.stage_depth m))

let prop_crash_monotone =
  QCheck.Test.make ~name:"a crash never shrinks the effective depth" ~count:40
    seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m -> (
          let graph = Replica_graph.compile m in
          match Replica_graph.depth graph with
          | None -> false
          | Some healthy ->
              List.for_all
                (fun p ->
                  match Replica_graph.depth ~failed:[ p ] graph with
                  | None -> prob.Types.eps = 0
                  | Some depth -> depth >= healthy)
                (Platform.procs prob.Types.platform)))

(* One evaluator reused over a sequence of failure sets answers each as a
   fresh [Replica_graph.depth ~failed] does: no stage of an earlier set
   leaks into a later one.  The sequence opens and closes with the empty
   set and the whole platform, repeats every drawn set in reverse, and the
   drawn sets are unsorted lists that may repeat a processor. *)
let prop_evaluator_reuse_matches_depth =
  QCheck.Test.make ~name:"a reused evaluator matches a fresh depth per failure set"
    ~count:40
    QCheck.(
      pair seed_arb
        (list_of_size Gen.(0 -- 12) (list_of_size Gen.(0 -- 10) (int_range 0 7))))
    (fun (seed, drawn) ->
      let prob = small_problem_of_seed seed in
      match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
          let graph = Replica_graph.compile m in
          let n = graph.Replica_graph.procs in
          let drawn = List.map (List.map (fun p -> p mod n)) drawn in
          let all = List.init n Fun.id in
          let sets = ([] :: all :: drawn) @ (all :: [] :: List.rev drawn) in
          let eval = Replica_graph.evaluator graph in
          let dead = Array.make n false in
          let raises msg f =
            match f () with
            | exception Invalid_argument m -> m = msg
            | _ -> false
          in
          let out_of_range p =
            raises "Replica_graph.depth: processor out of range" (fun () ->
                Replica_graph.depth ~failed:[ 0; p ] graph)
          in
          List.for_all
            (fun failed ->
              Array.fill dead 0 n false;
              List.iter (fun p -> dead.(p) <- true) failed;
              eval dead = Replica_graph.depth ~failed graph)
            sets
          && out_of_range n && out_of_range (-1)
          && raises "Replica_graph.evaluator: mask length is not the platform size"
               (fun () -> eval (Array.make (n + 1) false)))

let prop_single_failure_survival =
  QCheck.Test.make
    ~name:"eps >= 1 schedules survive every single processor failure"
    ~count:40 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      if prob.Types.eps = 0 then true
      else
        match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
        | Error _ -> QCheck.assume_fail ()
        | Ok m ->
            List.for_all
              (fun p -> Fixtures.fixed_latency ~failed:[ p ] m <> None)
              (Platform.procs prob.Types.platform))

let prop_derive_tolerant =
  QCheck.Test.make
    ~name:"source derivation is tolerant for any distinct placement"
    ~count:60 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let tasks = 3 + Rng.int rng 20 in
      let dag = Random_dag.layered ~rng ~tasks () in
      let m_procs = 6 + Rng.int rng 6 in
      let plat = Fixtures.uniform m_procs in
      let eps = Rng.int rng 3 in
      (* random placement with distinct processors per task *)
      let proc_table =
        Array.init tasks (fun _ ->
            let all = Array.init m_procs Fun.id in
            Rng.shuffle rng all;
            Array.sub all 0 (eps + 1))
      in
      let mapping =
        Source_derivation.derive ~dag ~platform:plat ~eps
          ~proc_of:(fun task copy -> proc_table.(task).(copy))
          ()
      in
      Validate.structure mapping = [] && Validate.fault_tolerance mapping = [])

(* Three independent implementations decide whether a failure set defeats a
   schedule: the static validator, the discrete-event engine, and the
   stage-synchronous model.  They must always agree.  The engine's answer
   comes through [Crash.estimate]'s [Fixed] replay, which must also equal a
   plain [Engine.simulate] of the same failure set bit for bit. *)
let prop_survival_consistency =
  QCheck.Test.make
    ~name:"validator, engine and stage model agree on survival" ~count:30
    (QCheck.pair seed_arb (QCheck.int_range 0 3))
    (fun (seed, n_failures) ->
      let prob = small_problem_of_seed seed in
      match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
          let rng = Rng.create ~seed:(seed + 1) in
          let m_procs = Platform.size prob.Types.platform in
          let failed =
            List.sort_uniq compare
              (List.init (min n_failures m_procs) (fun _ -> Rng.int rng m_procs))
          in
          let validator = Validate.survives m ~failed in
          let estimate = Fixtures.fixed_latency ~failed m in
          let replay =
            (Fixtures.simulate
               ~config:{ (Engine.Run.closed ()) with Engine.Run.failed } m)
              .Engine.item_latency.(0)
          in
          let engine = estimate <> None in
          let stage =
            Replica_graph.depth ~failed (Replica_graph.compile m) <> None
          in
          validator = engine && engine = stage
          && Option.equal float_bits_equal estimate replay)

(* The one-port invariants, checked on the engine's own message log: on any
   processor, transfers it sends must not overlap pairwise, and neither may
   transfers it receives; executions on one processor must not overlap. *)
let prop_engine_one_port =
  QCheck.Test.make ~name:"engine respects the bi-directional one-port model"
    ~count:30 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
          let result =
            Fixtures.simulate ~config:(Engine.Run.closed ~n_items:3 ()) m
          in
          let proc_of (inst : Engine.instance) =
            (Mapping.replica_exn m inst.Engine.rep.Replica.task
               inst.Engine.rep.Replica.copy)
              .Replica.proc
          in
          let no_overlap intervals =
            let sorted = List.sort compare intervals in
            let rec check = function
              | (_, f) :: ((s, _) :: _ as rest) -> f <= s +. 1e-9 && check rest
              | _ -> true
            in
            check sorted
          in
          let sends = Hashtbl.create 16 and recvs = Hashtbl.create 16 in
          let push tbl key interval =
            Hashtbl.replace tbl key
              (interval :: (try Hashtbl.find tbl key with Not_found -> []))
          in
          List.iter
            (fun (msg : Engine.message) ->
              let interval = (msg.Engine.msg_start, msg.Engine.msg_finish) in
              push sends (proc_of msg.Engine.msg_src) interval;
              push recvs (proc_of msg.Engine.msg_dst) interval)
            result.Engine.messages;
          let ports_ok =
            Hashtbl.fold (fun _ l acc -> acc && no_overlap l) sends true
            && Hashtbl.fold (fun _ l acc -> acc && no_overlap l) recvs true
          in
          (* executions per processor *)
          let execs = Hashtbl.create 16 in
          for item = 0 to 2 do
            Mapping.iter m (fun (r : Replica.t) ->
                match
                  ( result.Engine.start_time item r.Replica.id,
                    result.Engine.finish_time item r.Replica.id )
                with
                | Some s, Some f -> push execs r.Replica.proc (s, f)
                | _ -> ())
          done;
          let execs_ok = Hashtbl.fold (fun _ l acc -> acc && no_overlap l) execs true in
          ports_ok && execs_ok)

let prop_recovery_restores_tolerance =
  QCheck.Test.make
    ~name:"recovery restores full tolerance among the survivors" ~count:30
    seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
          let rng = Rng.create ~seed:(seed + 7) in
          let m_procs = Platform.size prob.Types.platform in
          (* A set of one to three distinct processors, drawn the way the
             operations layer accumulates them (the new victim ahead of
             the earlier crashes): no replica may survive on any of them,
             which is why an epoch resumed on the restored mapping needs
             no static-failure list. *)
          let rec draw acc k =
            if k = 0 then acc
            else
              let u = Rng.int rng m_procs in
              if List.mem u acc then draw acc k else draw (u :: acc) (k - 1)
          in
          let failed = draw [] (1 + Rng.int rng (min 3 (m_procs - 1))) in
          (match Recovery.restore m ~failed with
          | Error Recovery.Not_enough_processors ->
              m_procs - List.length failed < prob.Types.eps + 1
          | Error (Recovery.No_room _) -> false
          | Ok restored ->
              List.for_all (fun u -> Mapping.on_proc restored u = []) failed
              && Validate.structure restored = []
              && Validate.fault_tolerance restored = []))

let prop_engine_latency_lower_bound =
  QCheck.Test.make
    ~name:"simulated latency is at least the heaviest task's execution"
    ~count:40 seed_arb (fun seed ->
      let prob = small_problem_of_seed seed in
      match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
      | Error _ -> QCheck.assume_fail ()
      | Ok m -> (
          match Fixtures.fixed_latency m with
          | None -> false
          | Some latency ->
              let slowest_needed =
                Dag.fold_tasks prob.Types.dag ~init:0.0 ~f:(fun acc t ->
                    (* every task runs somewhere: at least the fastest
                       processor's time for it *)
                    let best =
                      List.fold_left
                        (fun best u ->
                          Float.min best
                            (Platform.exec_time prob.Types.platform u
                               (Dag.exec prob.Types.dag t)))
                        infinity
                        (Platform.procs prob.Types.platform)
                    in
                    Float.max acc best)
              in
              latency >= slowest_needed -. 1e-9))

let prop_workflow_io_roundtrip =
  QCheck.Test.make ~name:"workflow files round-trip through print and parse"
    ~count:60 seed_arb (fun seed ->
      let g = layered_of_seed seed in
      match Workflow_io.parse_workflow (Workflow_io.print_workflow g) with
      | Error _ -> false
      | Ok g' ->
          Dag.size g = Dag.size g'
          && Dag.n_edges g = Dag.n_edges g'
          && Dag.fold_edges g ~init:true ~f:(fun acc s d v ->
                 acc
                 && Dag.has_edge g' s d
                 && Float.abs (Dag.volume g' s d -. v)
                    <= 1e-6 *. Float.max 1.0 v))

(* ------------------------------------------------------------------ *)
(* Parallel sweep engine                                               *)
(* ------------------------------------------------------------------ *)

let trial_bits_equal (a : Fig_common.trial_result) (b : Fig_common.trial_result)
    =
  float_bits_equal a.Fig_common.bound b.Fig_common.bound
  && float_bits_equal a.Fig_common.sim b.Fig_common.sim
  && float_bits_equal a.Fig_common.crash b.Fig_common.crash
  && a.Fig_common.meets = b.Fig_common.meets

let sample_bits_equal (a : Fig_common.sample) (b : Fig_common.sample) =
  float_bits_equal a.Fig_common.granularity b.Fig_common.granularity
  && trial_bits_equal a.Fig_common.ltf b.Fig_common.ltf
  && trial_bits_equal a.Fig_common.rltf b.Fig_common.rltf
  && float_bits_equal (Fig_common.ff_sim a) (Fig_common.ff_sim b)

let prop_parallel_collect_deterministic =
  QCheck.Test.make
    ~name:"parallel collect is byte-identical to the sequential collect"
    ~count:4
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 3) (int_range 0 2)
        (int_range 1 4))
    (fun (seed, eps, crashes, jobs) ->
      let config =
        {
          (Fig_common.quick ~eps ~crashes) with
          Fig_common.seed;
          graphs_per_point = 2;
          granularities = [ 0.6; 1.4 ];
        }
      in
      let sequential = Fig_common.collect ~jobs:1 config in
      let parallel = Fig_common.collect ~jobs config in
      List.length sequential = List.length parallel
      && List.for_all2 sample_bits_equal sequential parallel)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within arbitrary bounds" ~count:200
    QCheck.(pair seed_arb (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "properties"
    [
      ( "graphs",
        List.map to_alcotest
          [
            prop_topo_order_valid;
            prop_depth_bounded;
            prop_width_bounds;
            prop_priority_peak_is_critical_path;
            prop_reverse_involution;
            prop_sp_generator_recognized;
          ] );
      ( "structures",
        List.map to_alcotest
          [
            prop_timeline_no_overlap;
            prop_timeline_busy_sum;
            prop_timeline_probe_is_virtual_insert;
            prop_heap_matches_model;
            prop_fits_match_the_list_oracle;
            prop_interval_contract;
            prop_bitset_diff_cardinal;
          ]
      );
      ( "bitsets",
        List.map to_alcotest
          [
            prop_bitset_matches_reference;
            prop_bitset_complement_reference;
            prop_bitset_complement_involution;
            prop_bitset_inclusion_exclusion;
          ] );
      ( "workload",
        List.map to_alcotest
          [ prop_calibration_exact; prop_rng_int_bounds; prop_workflow_io_roundtrip ] );
      ( "parallel",
        List.map to_alcotest [ prop_parallel_collect_deterministic ] );
      ( "scheduling",
        List.map to_alcotest
          [
            prop_ltf_valid;
            prop_rltf_valid;
            prop_best_effort_tolerant;
            prop_effective_depth_bounded;
            prop_crash_monotone;
            prop_single_failure_survival;
            prop_derive_tolerant;
            prop_survival_consistency;
            prop_recovery_restores_tolerance;
            prop_engine_one_port;
            prop_engine_latency_lower_bound;
            prop_pre_probe_exact;
            prop_evaluator_reuse_matches_depth;
          ] );
    ]
