open Test_support

(* The exact availability calculus against ground truth: exhaustive
   enumeration of every failure pattern on small platforms (p <= 8), the
   Monte-Carlo estimators it is meant to replace, and pinned values for
   the seed workloads. *)

let case = Fixtures.case
let to_alcotest = QCheck_alcotest.to_alcotest
let seed_arb = QCheck.int_range 0 100_000

(* Small problems on at most 8 processors, so 2^m enumeration stays cheap. *)
let small_problem_of_seed seed =
  let rng = Rng.create ~seed in
  let tasks = 4 + Rng.int rng 16 in
  let dag = Random_dag.layered ~rng ~tasks () in
  let m = 4 + Rng.int rng 5 in
  let plat = Fixtures.uniform m in
  let eps = Rng.int rng (min 2 (m - 1) + 1) in
  let throughput =
    1.0 /. (4.0 *. float_of_int (eps + 1) *. float_of_int tasks /. float_of_int m)
  in
  Types.problem ~dag ~platform:plat ~eps ~throughput

let schedule_of_seed seed =
  let prob = small_problem_of_seed seed in
  match Ltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob with
  | Error _ -> None
  | Ok m -> Some (prob, m)

let subset_of_mask ~m mask =
  List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init m Fun.id)

(* The liveness sweep on one failure pattern: the defeat predicate the
   cut families and the engine replay are checked against. *)
let defeated graph ~failed = Replica_graph.depth ~failed graph = None

let popcount mask =
  let rec go mask acc = if mask = 0 then acc else go (mask land (mask - 1)) (acc + 1) in
  go mask 0

let float_binom n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let r = ref 1.0 in
    for i = 1 to k do
      r := !r *. float_of_int (n - k + i) /. float_of_int i
    done;
    !r
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive oracles: every failure pattern on p <= 8                  *)
(* ------------------------------------------------------------------ *)

(* The cut families ARE the defeat predicate: a pattern defeats the
   schedule iff it contains a minimal cut.  Checked against the depth
   sweep and the discrete-event engine, for all 2^m patterns. *)
let prop_cut_sets_match_enumeration =
  QCheck.Test.make ~name:"defeat cuts reproduce every failure pattern"
    ~count:25 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let cuts = Reliability.defeat_cut_sets t in
          let program = Engine.compile m in
          let graph = Replica_graph.compile m in
          let n_procs = Platform.size prob.Types.platform in
          let ok = ref true in
          for mask = 0 to (1 lsl n_procs) - 1 do
            let failed = subset_of_mask ~m:n_procs mask in
            let failed_set = Bitset.of_list failed in
            let by_cuts = List.exists (fun c -> Bitset.subset c failed_set) cuts in
            let by_depth = defeated graph ~failed in
            let by_engine =
              (Crash.estimate ~source:(Crash.Of_program program)
                 ~method_:(Crash.Fixed failed) ())
                .Crash.est_mean
              = None
            in
            if not (by_cuts = by_depth && by_depth = by_engine) then ok := false
          done;
          !ok)

(* Past exhaustive reach: paper-layered R-LTF mappings on m = 20
   processors (eps in {1, 2}), probed with random c-subsets for every
   c <= eps + 1.  The depth sweep, the minimal cuts of an analysis
   pruned at c, and a fixed-set engine replay must reach one defeat
   verdict on every subset. *)
let prop_defeat_predicate_at_m20 =
  QCheck.Test.make ~name:"defeat predicate agrees with cuts and engine at m=20"
    ~count:10 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let eps = 1 + Rng.int rng 2 in
      let granularity = Rng.choose rng Paper_workload.granularities in
      let inst = Spec.generate Spec.default ~rng ~granularity () in
      let prob =
        Types.problem ~dag:inst.Paper_workload.dag
          ~platform:inst.Paper_workload.plat ~eps
          ~throughput:(Spec.throughput Spec.default ~eps)
      in
      match
        Rltf.schedule ~opts:Scheduler.(default |> with_mode Best_effort) prob
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
          let n_procs = Platform.size inst.Paper_workload.plat in
          let program = Engine.compile m in
          let graph = Replica_graph.compile m in
          List.for_all
            (fun c ->
              let t = Reliability.analyze ~max_cut_card:c m in
              let cuts = Reliability.defeat_cut_sets t in
              List.for_all
                (fun _ ->
                  let procs = Array.init n_procs Fun.id in
                  Rng.shuffle rng procs;
                  let failed = Array.to_list (Array.sub procs 0 c) in
                  let failed_set = Bitset.of_list failed in
                  let by_depth = defeated graph ~failed in
                  let by_cuts =
                    List.exists (fun cut -> Bitset.subset cut failed_set) cuts
                  in
                  let by_engine =
                    (Crash.estimate ~source:(Crash.Of_program program)
                       ~method_:(Crash.Fixed failed) ())
                      .Crash.est_mean
                    = None
                  in
                  by_depth = by_cuts && by_cuts = by_engine)
                (List.init 12 Fun.id))
            (List.init (eps + 1) (fun i -> i + 1)))

(* The calculus depth distribution matches the depth sweep's enumeration
   counts for every crash count c, and so does the estimator's exact
   defeat probability under both latency models. *)
let prop_depth_distribution_exhaustive =
  QCheck.Test.make ~name:"depth distribution matches exhaustive enumeration"
    ~count:15 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let n_procs = Platform.size prob.Types.platform in
          let graph = Replica_graph.compile m in
          let stages =
            Crash.Of_stages { plan = graph; throughput = prob.Types.throughput }
          in
          let ok = ref true in
          (* per crash count: depth histogram over all masks of that size *)
          let histo = Array.make (n_procs + 1) [] in
          for mask = 0 to (1 lsl n_procs) - 1 do
            let failed = subset_of_mask ~m:n_procs mask in
            let d = Replica_graph.depth ~failed graph in
            let c = popcount mask in
            histo.(c) <- d :: histo.(c)
          done;
          for c = 0 to n_procs do
            let total = float_binom n_procs c in
            (* both evaluation strategies — subset enumeration and the
               antichain telescoping — must match the mask histogram *)
            List.iter
              (fun dist ->
                (* every listed mass equals its enumeration frequency *)
                List.iter
                  (fun (d, p) ->
                    let count =
                      List.length (List.filter (fun x -> x = Some d) histo.(c))
                    in
                    if Float.abs (p -. (float_of_int count /. total)) > 1e-9
                    then ok := false)
                  dist;
                (* and the masses cover every surviving pattern *)
                let survivors =
                  List.length (List.filter (fun x -> x <> None) histo.(c))
                in
                let mass =
                  List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist
                in
                if Float.abs (mass -. (float_of_int survivors /. total)) > 1e-9
                then ok := false)
              [
                Reliability.depth_distribution t (Reliability.Uniform_crashes c);
                Reliability.depth_distribution ~enumerate_below:0 t
                  (Reliability.Uniform_crashes c);
              ];
            let defeated =
              List.length (List.filter (fun x -> x = None) histo.(c))
            in
            List.iter
              (fun source ->
                let e =
                  Crash.estimate ~source
                    ~method_:
                      (Crash.Exact { crashes = c; max_evaluations = None })
                    ()
                in
                if
                  Float.abs
                    (e.Crash.est_p_defeat -. (float_of_int defeated /. total))
                  > 1e-9
                then ok := false)
              [ Crash.Of_mapping m; stages ]
          done;
          !ok)

let prop_uniform_probability_exhaustive =
  QCheck.Test.make ~name:"uniform defeat probability matches enumeration"
    ~count:20 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let graph = Replica_graph.compile m in
          let n_procs = Platform.size prob.Types.platform in
          List.for_all
            (fun c ->
              let n_defeated = ref 0 in
              for mask = 0 to (1 lsl n_procs) - 1 do
                if popcount mask = c then
                  if defeated graph ~failed:(subset_of_mask ~m:n_procs mask)
                  then incr n_defeated
              done;
              let brute = float_of_int !n_defeated /. float_binom n_procs c in
              let by_enum =
                Reliability.defeat_probability t (Reliability.Uniform_crashes c)
              in
              let by_cuts =
                Reliability.defeat_probability ~enumerate_below:0 t
                  (Reliability.Uniform_crashes c)
              in
              Float.abs (brute -. by_enum) <= 1e-9
              && Float.abs (brute -. by_cuts) <= 1e-9)
            (List.init (n_procs + 1) Fun.id))

let prop_independent_probability_exhaustive =
  QCheck.Test.make ~name:"independent defeat probability matches enumeration"
    ~count:20 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let n_procs = Platform.size prob.Types.platform in
          let rng = Rng.create ~seed:(seed + 13) in
          let hazard = Array.init n_procs (fun _ -> Rng.float rng 0.9) in
          let graph = Replica_graph.compile m in
          let brute = ref 0.0 in
          for mask = 0 to (1 lsl n_procs) - 1 do
            let failed = subset_of_mask ~m:n_procs mask in
            if defeated graph ~failed then begin
              let w = ref 1.0 in
              for u = 0 to n_procs - 1 do
                w :=
                  !w
                  *.
                  if mask land (1 lsl u) <> 0 then hazard.(u)
                  else 1.0 -. hazard.(u)
              done;
              brute := !brute +. !w
            end
          done;
          let exact =
            Reliability.defeat_probability t
              (Reliability.Independent (fun u -> hazard.(u)))
          in
          ignore prob;
          Float.abs (!brute -. exact) <= 1e-9)

(* Expected degraded latency conditioned on survival, against the same
   enumeration. *)
let prop_expected_latency_exhaustive =
  QCheck.Test.make ~name:"expected degraded latency matches enumeration"
    ~count:15 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let throughput = prob.Types.throughput in
          let n_procs = Platform.size prob.Types.platform in
          let graph = Replica_graph.compile m in
          List.for_all
            (fun c ->
              let total = ref 0.0 and survivors = ref 0 in
              for mask = 0 to (1 lsl n_procs) - 1 do
                if popcount mask = c then
                  match
                    Replica_graph.depth
                      ~failed:(subset_of_mask ~m:n_procs mask)
                      graph
                  with
                  | None -> ()
                  | Some d ->
                      incr survivors;
                      total :=
                        !total
                        +. (float_of_int ((2 * d) - 1) /. throughput)
              done;
              let brute =
                if !survivors = 0 then None
                else Some (!total /. float_of_int !survivors)
              in
              List.for_all
                (fun exact ->
                  match (brute, exact) with
                  | None, None -> true
                  | Some b, Some e ->
                      Float.abs (b -. e) <= 1e-9 *. Float.max 1.0 (Float.abs b)
                  | _ -> false)
                [
                  Reliability.expected_latency t ~throughput
                    (Reliability.Uniform_crashes c);
                  Reliability.expected_latency ~enumerate_below:0 t ~throughput
                    (Reliability.Uniform_crashes c);
                ])
            (List.init (n_procs + 1) Fun.id))

(* ------------------------------------------------------------------ *)
(* Structural properties of the calculus                                *)
(* ------------------------------------------------------------------ *)

let prop_probability_in_unit_interval =
  QCheck.Test.make ~name:"defeat probabilities live in [0, 1]" ~count:30
    (QCheck.pair seed_arb (QCheck.int_range 0 8))
    (fun (seed, c) ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let n_procs = Platform.size prob.Types.platform in
          let c = min c n_procs in
          let pu = Reliability.defeat_probability t (Reliability.Uniform_crashes c) in
          let q = 0.001 *. float_of_int (1 + (seed mod 900)) in
          let pi = Reliability.defeat_probability t (Reliability.Independent (fun _ -> q)) in
          pu >= 0.0 && pu <= 1.0 && pi >= 0.0 && pi <= 1.0)

let prop_monotone_in_hazard =
  QCheck.Test.make ~name:"defeat probability is monotone in the hazard"
    ~count:30
    (QCheck.triple seed_arb (QCheck.float_range 0.0 1.0) (QCheck.float_range 0.0 1.0))
    (fun (seed, q1, q2) ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (_, m) ->
          let t = Reliability.analyze m in
          let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
          let p_lo = Reliability.defeat_probability t (Reliability.Independent (fun _ -> lo)) in
          let p_hi = Reliability.defeat_probability t (Reliability.Independent (fun _ -> hi)) in
          p_lo <= p_hi +. 1e-12)

let prop_monotone_in_crashes =
  QCheck.Test.make ~name:"defeat probability is monotone in the crash count"
    ~count:30 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let n_procs = Platform.size prob.Types.platform in
          let p c = Reliability.defeat_probability t (Reliability.Uniform_crashes c) in
          let rec mono c prev =
            c > n_procs
            ||
            let here = p c in
            here >= prev -. 1e-12 && mono (c + 1) here
          in
          mono 0 0.0)

(* eps-tolerance restated analytically: with at most eps crashes the
   schedule never loses (the validator's guarantee, via the calculus). *)
let prop_tolerance_within_eps =
  QCheck.Test.make ~name:"defeat probability is 0 for c <= eps" ~count:30
    seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          List.for_all
            (fun c ->
              Reliability.defeat_probability t (Reliability.Uniform_crashes c)
              = 0.0)
            (List.init (prob.Types.eps + 1) Fun.id))

(* Pruning at the crash-count horizon is invisible to the uniform model. *)
let prop_pruned_analysis_agrees =
  QCheck.Test.make ~name:"cut-cardinality pruning preserves uniform answers"
    ~count:20
    (QCheck.pair seed_arb (QCheck.int_range 0 4))
    (fun (seed, c) ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let c = min c (Platform.size prob.Types.platform) in
          let full = Reliability.analyze m in
          let pruned = Reliability.analyze ~max_cut_card:c m in
          let model = Reliability.Uniform_crashes c in
          (* force the antichain evaluator: pruning lives in the families *)
          Float.abs
            (Reliability.defeat_probability ~enumerate_below:0 full model
            -. Reliability.defeat_probability ~enumerate_below:0 pruned model)
          <= 1e-12)

(* Unreplicated chains always admit the closed-form product; it must agree
   with the Shannon evaluator. *)
let prop_closed_form_agrees =
  QCheck.Test.make ~name:"closed-form product agrees with the general evaluator"
    ~count:40 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 7 in
      let dag = Classic.chain ~n ~exec:1.0 ~volume:1.0 in
      let m_procs = 2 + Rng.int rng 7 in
      let plat = Fixtures.uniform m_procs in
      let placement = Array.init n (fun _ -> Rng.int rng m_procs) in
      let m =
        Source_derivation.derive ~dag ~platform:plat ~eps:0
          ~proc_of:(fun task _copy -> placement.(task))
          ()
      in
      let t = Reliability.analyze m in
      let hazard = Array.init m_procs (fun _ -> Rng.float rng 0.9) in
      let pfail u = hazard.(u) in
      match Reliability.closed_form_defeat t ~pfail with
      | None -> false
      | Some p ->
          Float.abs (p -. Reliability.defeat_probability t (Reliability.Independent pfail))
          <= 1e-12)

(* The exact surfaces agree: the estimator's engine enumeration, its
   analytic stage-model answer, the raw calculus, and an enumeration of
   every failure set through [Crash.Fixed].  The engine enumeration takes
   its defeat verdicts from [Replica_graph.depth]; the [Fixed] replays
   never consult it, so they stay the predicate-independent side. *)
let prop_exact_siblings_agree =
  QCheck.Test.make ~name:"Crash and Stage_latency exact siblings agree"
    ~count:20
    (QCheck.pair seed_arb (QCheck.int_range 0 3))
    (fun (seed, c) ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let c = min c (Platform.size prob.Types.platform) in
          let engine =
            Crash.estimate ~source:(Crash.Of_mapping m)
              ~method_:(Crash.Exact { crashes = c; max_evaluations = None })
              ()
          in
          let stage =
            Crash.estimate
              ~source:
                (Crash.Of_stages
                   {
                     plan = Replica_graph.compile m;
                     throughput = prob.Types.throughput;
                   })
              ~method_:(Crash.Exact { crashes = c; max_evaluations = None })
              ()
          in
          let calculus =
            let t = Reliability.analyze ~max_cut_card:c m in
            Reliability.defeat_probability t (Reliability.Uniform_crashes c)
          in
          let fixed =
            let program = Engine.compile m in
            let n_procs = Platform.size prob.Types.platform in
            List.filter_map
              (fun mask ->
                if popcount mask <> c then None
                else
                  Some
                    (Crash.estimate ~source:(Crash.Of_program program)
                       ~method_:(Crash.Fixed (subset_of_mask ~m:n_procs mask))
                       ())
                      .Crash.est_mean)
              (List.init (1 lsl n_procs) Fun.id)
          in
          let fixed_survivors = List.filter_map Fun.id fixed in
          let fixed_p_defeat =
            float_of_int (List.length fixed - List.length fixed_survivors)
            /. float_of_int (List.length fixed)
          in
          let fixed_mean =
            match fixed_survivors with
            | [] -> None
            | ls ->
                Some
                  (List.fold_left ( +. ) 0.0 ls
                  /. float_of_int (List.length ls))
          in
          Float.abs (engine.Crash.est_p_defeat -. stage.Crash.est_p_defeat)
          <= 1e-9
          && Float.abs (engine.Crash.est_p_defeat -. calculus) <= 1e-9
          && Float.abs (engine.Crash.est_p_defeat -. fixed_p_defeat) <= 1e-9
          && (match (engine.Crash.est_mean, fixed_mean) with
             | None, None -> true
             | Some a, Some b -> Float.abs (a -. b) <= 1e-9 *. Float.abs b
             | _ -> false)
          && (stage.Crash.est_mean = None) = (engine.Crash.est_mean = None))

(* ------------------------------------------------------------------ *)
(* Monte-Carlo convergence: the estimator approaches the exact value    *)
(* ------------------------------------------------------------------ *)

(* For growing draw counts the defeat-rate estimate must fall within a
   z-score band around the analytic value; the band narrows as 1/sqrt(n).
   z = 5 keeps the statistical false-failure rate around 6e-7 per
   check. *)
let prop_mc_converges_to_exact =
  QCheck.Test.make ~name:"Monte-Carlo defeat rates converge to the calculus"
    ~count:15
    (QCheck.pair seed_arb (QCheck.int_range 1 3))
    (fun (seed, c) ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let n_procs = Platform.size prob.Types.platform in
          let c = min c n_procs in
          let t = Reliability.analyze ~max_cut_card:c m in
          let exact =
            Reliability.defeat_probability t (Reliability.Uniform_crashes c)
          in
          let program = Engine.compile m in
          ignore prob;
          List.for_all
            (fun runs ->
              let rng = Rng.create ~seed:(seed + (7 * runs)) in
              let e =
                Crash.estimate ~source:(Crash.Of_program program)
                  ~method_:(Crash.Sampled { crashes = c; draws = runs; rng })
                  ()
              in
              let est = e.Crash.est_p_defeat in
              let sigma =
                Float.sqrt (Float.max (exact *. (1.0 -. exact)) 1e-6 /. float_of_int runs)
              in
              Float.abs (est -. exact) <= 5.0 *. sigma)
            [ 100; 400; 1600 ])

(* ------------------------------------------------------------------ *)
(* Hand-checkable unit cases and pinned seed workloads                  *)
(* ------------------------------------------------------------------ *)

let place m task copy proc sources =
  Mapping.assign m { Replica.id = { Replica.task; copy }; proc; sources }

(* chain3 on 3 processors, eps = 0, one replica per processor: the
   schedule dies iff any of the three processors dies. *)
let unreplicated_chain () =
  let m =
    Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 3) ~eps:0
  in
  place m 0 0 0 [];
  place m 1 0 1 [ (0, [ { Replica.task = 0; copy = 0 } ]) ];
  place m 2 0 2 [ (1, [ { Replica.task = 1; copy = 0 } ]) ];
  m

let chain_cut_sets () =
  let t = Reliability.analyze (unreplicated_chain ()) in
  let cuts = Reliability.defeat_cut_sets t in
  Alcotest.(check int) "three singleton cuts" 3 (List.length cuts);
  List.iter
    (fun c -> Alcotest.(check int) "singleton" 1 (Bitset.cardinal c))
    cuts;
  Fixtures.check_float "uniform c=1"
    1.0
    (Reliability.defeat_probability t (Reliability.Uniform_crashes 1));
  Fixtures.check_float "uniform c=1 (antichain)" 1.0
    (Reliability.defeat_probability ~enumerate_below:0 t
       (Reliability.Uniform_crashes 1));
  let q = 0.1 in
  let expected = 1.0 -. ((1.0 -. q) ** 3.0) in
  Fixtures.check_float "independent q=0.1" expected
    (Reliability.defeat_probability t (Reliability.Independent (fun _ -> q)));
  match Reliability.closed_form_defeat t ~pfail:(fun _ -> q) with
  | None -> Alcotest.fail "chain should admit the closed form"
  | Some p -> Fixtures.check_float "closed form" expected p

(* chain3 mirrored on two processors, eps = 1, fully cross-wired: every
   stage survives one crash; both processors must die to defeat it. *)
let mirrored_chain () =
  let m =
    Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 2) ~eps:1
  in
  let both task = [ { Replica.task; copy = 0 }; { Replica.task; copy = 1 } ] in
  place m 0 0 0 [];
  place m 0 1 1 [];
  place m 1 0 0 [ (0, both 0) ];
  place m 1 1 1 [ (0, both 0) ];
  place m 2 0 0 [ (1, both 1) ];
  place m 2 1 1 [ (1, both 1) ];
  m

let mirrored_cut_sets () =
  let t = Reliability.analyze (mirrored_chain ()) in
  (match Reliability.defeat_cut_sets t with
  | [ c ] ->
      Alcotest.(check (list int)) "both procs" [ 0; 1 ] (Bitset.elements c)
  | cuts ->
      Alcotest.failf "expected one cut, got %d" (List.length cuts));
  Fixtures.check_float "survives one crash" 0.0
    (Reliability.defeat_probability t (Reliability.Uniform_crashes 1));
  Fixtures.check_float "defeated by two" 1.0
    (Reliability.defeat_probability t (Reliability.Uniform_crashes 2));
  Fixtures.check_float "survives one crash (antichain)" 0.0
    (Reliability.defeat_probability ~enumerate_below:0 t
       (Reliability.Uniform_crashes 1));
  Fixtures.check_float "defeated by two (antichain)" 1.0
    (Reliability.defeat_probability ~enumerate_below:0 t
       (Reliability.Uniform_crashes 2));
  let q = 0.25 in
  Fixtures.check_float "independent" (q *. q)
    (Reliability.defeat_probability t (Reliability.Independent (fun _ -> q)))

let validation_errors () =
  let incomplete =
    Mapping.create ~dag:Fixtures.chain3 ~platform:(Fixtures.uniform 3) ~eps:0
  in
  Alcotest.check_raises "incomplete mapping"
    (Invalid_argument "Reliability.analyze: mapping is not complete")
    (fun () -> ignore (Reliability.analyze incomplete));
  let t = Reliability.analyze (unreplicated_chain ()) in
  Alcotest.check_raises "crash count out of range"
    (Invalid_argument "Reliability: crash count outside [0, m]")
    (fun () ->
      ignore (Reliability.defeat_probability t (Reliability.Uniform_crashes 4)));
  let pruned = Reliability.analyze ~max_cut_card:1 (unreplicated_chain ()) in
  Alcotest.check_raises "past the pruning horizon"
    (Invalid_argument "Reliability: crash count exceeds the analysis cut horizon")
    (fun () ->
      ignore (Reliability.defeat_probability pruned (Reliability.Uniform_crashes 2)));
  Alcotest.check_raises "independent needs the unpruned analysis"
    (Invalid_argument "Reliability: Independent model needs an unpruned analysis")
    (fun () ->
      ignore
        (Reliability.defeat_probability pruned (Reliability.Independent (fun _ -> 0.1))))

(* ------------------------------------------------------------------ *)
(* Correlated failure domains (Marshall–Olkin common shocks)            *)
(* ------------------------------------------------------------------ *)

(* Exhaustive ground truth: condition on every shock pattern, then sum
   over every idiosyncratic pattern with the depth sweep as defeat
   predicate — the definition the 2^D evaluation must reproduce. *)
let brute_force_correlated graph ~domains ~p_shock ~p_fail =
  let m = graph.Replica_graph.procs in
  let n_domains = Faults.Domains.count domains in
  let total = ref 0.0 in
  for shock_mask = 0 to (1 lsl n_domains) - 1 do
    let weight = ref 1.0 in
    for d = 0 to n_domains - 1 do
      let p = p_shock d in
      weight := !weight *. (if shock_mask land (1 lsl d) <> 0 then p else 1.0 -. p)
    done;
    if !weight > 0.0 then
      for idio_mask = 0 to (1 lsl m) - 1 do
        let prob = ref !weight in
        let failed = ref [] in
        for u = m - 1 downto 0 do
          let shocked =
            shock_mask land (1 lsl Faults.Domains.domain_of domains u) <> 0
          in
          let idio = idio_mask land (1 lsl u) <> 0 in
          let q = p_fail u in
          prob := !prob *. (if idio then q else 1.0 -. q);
          if shocked || idio then failed := u :: !failed
        done;
        if !prob > 0.0 && defeated graph ~failed:!failed then
          total := !total +. !prob
      done
  done;
  !total

let prop_correlated_matches_brute_force =
  QCheck.Test.make ~name:"correlated evaluation equals exhaustive conditioning"
    ~count:10 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let procs = Platform.size prob.Types.platform in
          let domains = Faults.Domains.racks ~size:3 ~procs in
          let p_shock d = 0.02 +. (0.03 *. float_of_int d) in
          let p_fail u = 0.05 +. (0.01 *. float_of_int u) in
          let exact =
            Reliability.defeat_probability t
              (Reliability.Correlated { domains; p_shock; p_fail })
          in
          Float.abs
            (exact
            -. brute_force_correlated (Replica_graph.compile m) ~domains
                 ~p_shock ~p_fail)
          < 1e-9)

let prop_zero_shock_degenerates_to_independent =
  QCheck.Test.make ~name:"p_shock = 0 equals the Independent model exactly"
    ~count:15 seed_arb (fun seed ->
      match schedule_of_seed seed with
      | None -> QCheck.assume_fail ()
      | Some (prob, m) ->
          let t = Reliability.analyze m in
          let procs = Platform.size prob.Types.platform in
          let domains = Faults.Domains.racks ~size:2 ~procs in
          let p_fail u = 0.03 +. (0.02 *. float_of_int u) in
          let correlated =
            Reliability.defeat_probability t
              (Reliability.Correlated
                 { domains; p_shock = (fun _ -> 0.0); p_fail })
          in
          let independent =
            Reliability.defeat_probability t (Reliability.Independent p_fail)
          in
          Float.abs (correlated -. independent) < 1e-12)

(* The mirrored chain is defeated only when both processors die, so the
   correlated probability is computable by hand: with both processors in
   one domain of shock probability s and idiosyncratic probability q,
   P(defeat) = s + (1 - s) q².  Splitting a total marginal p = 0.2 at
   correlation 1/2 (s = 0.1, q = 1 - 0.8/0.9 = 1/9) gives exactly 1/9 —
   nearly three times the independent p² = 0.04.  Pinned: any drift is a
   semantic change to the calculus. *)
let correlated_mirrored_chain () =
  let t = Reliability.analyze (mirrored_chain ()) in
  let domains = Faults.Domains.make ~procs:2 [ [ 0; 1 ] ] in
  let evaluate ~s ~q =
    Reliability.defeat_probability t
      (Reliability.Correlated
         { domains; p_shock = (fun _ -> s); p_fail = (fun _ -> q) })
  in
  Fixtures.check_float "correlated defeat (rho = 1/2)" (1.0 /. 9.0)
    (evaluate ~s:0.1 ~q:(1.0 /. 9.0));
  Fixtures.check_float "independent baseline" 0.04
    (Reliability.defeat_probability t (Reliability.Independent (fun _ -> 0.2)));
  Fixtures.check_float "pure shock (rho = 1)" 0.2 (evaluate ~s:0.2 ~q:0.0);
  Fixtures.check_float "no shock (rho = 0)" 0.04 (evaluate ~s:0.0 ~q:0.2)

(* Monte-Carlo cross-validation of the same model: draw the shock and
   the idiosyncratic failures, replay the depth sweep.  Seed-pinned, so the
   estimate is deterministic and the gate is a convergence bound, not a
   flaky statistical test. *)
let correlated_mc_cross_check () =
  let m = mirrored_chain () in
  let t = Reliability.analyze m in
  let graph = Replica_graph.compile m in
  let domains = Faults.Domains.make ~procs:2 [ [ 0; 1 ] ] in
  let s = 0.1 and q = 1.0 /. 9.0 in
  let exact =
    Reliability.defeat_probability t
      (Reliability.Correlated
         { domains; p_shock = (fun _ -> s); p_fail = (fun _ -> q) })
  in
  let rng = Rng.create ~seed:2009 in
  let draws = 20_000 in
  let n_defeated = ref 0 in
  for _ = 1 to draws do
    let shocked = Rng.bool rng s in
    let failed = ref [] in
    for u = 1 downto 0 do
      if shocked || Rng.bool rng q then failed := u :: !failed
    done;
    if defeated graph ~failed:!failed then incr n_defeated
  done;
  let mc = float_of_int !n_defeated /. float_of_int draws in
  Fixtures.check_float_eps 0.01 "MC within the convergence gate" exact mc

let correlated_validation_errors () =
  let t = Reliability.analyze (mirrored_chain ()) in
  Alcotest.check_raises "mismatched platform"
    (Invalid_argument
       "Reliability: Correlated domains partition a different platform")
    (fun () ->
      ignore
        (Reliability.defeat_probability t
           (Reliability.Correlated
              {
                domains = Faults.Domains.racks ~size:2 ~procs:4;
                p_shock = (fun _ -> 0.1);
                p_fail = (fun _ -> 0.1);
              })));
  Alcotest.check_raises "shock probability out of range"
    (Invalid_argument
       "Reliability: Correlated shock probability outside [0, 1]")
    (fun () ->
      ignore
        (Reliability.defeat_probability t
           (Reliability.Correlated
              {
                domains = Faults.Domains.make ~procs:2 [ [ 0; 1 ] ];
                p_shock = (fun _ -> 1.5);
                p_fail = (fun _ -> 0.1);
              })));
  let pruned = Reliability.analyze ~max_cut_card:1 (unreplicated_chain ()) in
  Alcotest.check_raises "needs the unpruned analysis"
    (Invalid_argument
       "Reliability: Correlated model needs an unpruned analysis")
    (fun () ->
      ignore
        (Reliability.defeat_probability pruned
           (Reliability.Correlated
              {
                domains = Faults.Domains.racks ~size:1 ~procs:3;
                p_shock = (fun _ -> 0.1);
                p_fail = (fun _ -> 0.1);
              })))

(* Pinned analytic defeat probabilities for the deterministic seed
   workload (Rng seed 42, R-LTF best-effort).  These are ground truth for
   future reliability changes: any drift here is a semantic change to the
   scheduler or the calculus, not noise. *)
let pinned_defeat_rates : (int * float) list =
  [
    (2, 0.53157894736842104);
    (3, 0.85175438596491226);
    (4, 0.96780185758513937);
  ]

let pinned_eps = 1
let pinned_throughput = Paper_workload.throughput ~eps:pinned_eps

let pinned_mapping () =
  let inst = Fixtures.paper_instance () in
  let prob =
    Types.problem ~dag:inst.Paper_workload.dag ~platform:inst.Paper_workload.plat
      ~eps:pinned_eps ~throughput:pinned_throughput
  in
  Fixtures.must_schedule ~mode:Scheduler.Best_effort `Rltf prob

let pinned_paper_workload () =
  let eps = pinned_eps in
  let m = pinned_mapping () in
  let t = Reliability.analyze ~max_cut_card:4 m in
  let p c = Reliability.defeat_probability t (Reliability.Uniform_crashes c) in
  let p_cuts c =
    Reliability.defeat_probability ~enumerate_below:0 t
      (Reliability.Uniform_crashes c)
  in
  List.iter
    (fun c ->
      Fixtures.check_float (Printf.sprintf "defeat within eps, c=%d" c) 0.0 (p c))
    (List.init (eps + 1) Fun.id);
  (* values computed by this calculus and cross-checked against the
     exhaustive oracle machinery above; pinned to catch drift *)
  List.iter
    (fun (c, expected) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pinned defeat rate, c=%d" c)
        expected (p c);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pinned defeat rate via antichain, c=%d" c)
        expected (p_cuts c))
    pinned_defeat_rates

(* One [t] answers every uniform question from one enumeration sweep per
   crash count, and the memo changes no answer: asked in either order,
   each result is bitwise equal to the same call on a fresh analysis. *)
let sweep_memo_changes_no_answer () =
  let m = pinned_mapping () in
  let throughput = pinned_throughput in
  let questions =
    [
      ( "defeat_probability",
        fun t c ->
          `P (Reliability.defeat_probability t (Reliability.Uniform_crashes c)) );
      ( "depth_distribution",
        fun t c ->
          `D (Reliability.depth_distribution t (Reliability.Uniform_crashes c)) );
      ( "latency_distribution",
        fun t c ->
          `L
            (Reliability.latency_distribution t ~throughput
               (Reliability.Uniform_crashes c)) );
      ( "expected_latency",
        fun t c ->
          `E
            (Reliability.expected_latency t ~throughput
               (Reliability.Uniform_crashes c)) );
    ]
  in
  let enumerations () =
    Obs.Registry.counter (Obs.snapshot ()) "rel.enumerations"
  in
  let ask_all t ~order c =
    let before = enumerations () in
    List.iter
      (fun (name, ask) ->
        let memo = ask t c in
        let fresh = ask (Reliability.analyze ~max_cut_card:4 m) c in
        Fixtures.check_true
          (Printf.sprintf "%s, c=%d, %s order: bitwise equal to a fresh t" name
             c order)
          (memo = fresh))
      (if order = "forward" then questions else List.rev questions);
    (* each fresh analysis runs its own sweep; [t] ran exactly one *)
    Alcotest.(check int)
      (Printf.sprintf "one sweep of t per crash count, c=%d, %s order" c order)
      (before + 1 + List.length questions)
      (enumerations ())
  in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let forward = Reliability.analyze ~max_cut_card:4 m in
      let backward = Reliability.analyze ~max_cut_card:4 m in
      List.iter (ask_all forward ~order:"forward") [ 1; 2; 3 ];
      List.iter (ask_all backward ~order:"backward") [ 3; 2; 1 ];
      (* a second round is all memo hits *)
      let before = enumerations () in
      List.iter
        (fun c -> List.iter (fun (_, ask) -> ignore (ask forward c)) questions)
        [ 1; 2; 3 ];
      Alcotest.(check int) "no sweep on a memo hit" before (enumerations ()))

let () =
  Alcotest.run "reliability"
    [
      ( "exhaustive",
        List.map to_alcotest
          [
            prop_cut_sets_match_enumeration;
            prop_depth_distribution_exhaustive;
            prop_uniform_probability_exhaustive;
            prop_independent_probability_exhaustive;
            prop_expected_latency_exhaustive;
          ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_probability_in_unit_interval;
            prop_monotone_in_hazard;
            prop_monotone_in_crashes;
            prop_tolerance_within_eps;
            prop_pruned_analysis_agrees;
            prop_closed_form_agrees;
            prop_exact_siblings_agree;
            prop_defeat_predicate_at_m20;
          ] );
      ("convergence", List.map to_alcotest [ prop_mc_converges_to_exact ]);
      ( "correlated",
        List.map to_alcotest
          [
            prop_correlated_matches_brute_force;
            prop_zero_shock_degenerates_to_independent;
          ]
        @ [
            case "pinned correlated vs independent defeat rates"
              correlated_mirrored_chain;
            case "Monte-Carlo cross-validation" correlated_mc_cross_check;
            case "validation errors" correlated_validation_errors;
          ] );
      ( "units",
        [
          case "unreplicated chain cut sets" chain_cut_sets;
          case "mirrored chain cut sets" mirrored_cut_sets;
          case "validation errors" validation_errors;
          case "pinned paper workload" pinned_paper_workload;
          case "the sweep memo changes no answer" sweep_memo_changes_no_answer;
        ] );
    ]
