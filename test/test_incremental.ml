open Test_support

(* The incremental scheduling-state engine: the scheduler's loads against
   the from-scratch recompute, Bitset agreement with the Set.Make(Int)
   reference, and the pinned figure/schedule regression guaranteeing the
   engine produces bit-identical results. *)

let to_alcotest = QCheck_alcotest.to_alcotest

let case = Fixtures.case
let slow_case = Fixtures.slow_case
let check_true = Fixtures.check_true

let seed_arb = QCheck.int_range 0 100_000

(* ------------------------------------------------------------------ *)
(* Scheduler loads vs of_mapping                                      *)
(* ------------------------------------------------------------------ *)

(* A complete schedule state: LTF best-effort on a random layered graph
   (best-effort only fails on replication-rule dead ends, which a
   6-processor platform avoids at these sizes). *)
let state_of_seed seed =
  let rng = Rng.create ~seed in
  let tasks = 2 + Rng.int rng 19 in
  let dag = Random_dag.layered ~rng ~tasks () in
  let prob =
    Types.problem ~dag ~platform:(Fixtures.uniform 6) ~eps:1 ~throughput:0.01
  in
  Ltf.schedule_state ~opts:Scheduler.(default |> with_mode Best_effort) prob

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* The scheduler charges loads per committed replica, transfers in
   readiness order; the from-scratch rewalk charges them in mapping order.
   Both sum the same terms, so they agree up to rounding. *)
let prop_state_loads_match_scratch =
  QCheck.Test.make ~name:"scheduler loads match of_mapping" ~count:60 seed_arb
    (fun seed ->
      match state_of_seed seed with
      | Error _ -> true
      | Ok st ->
          let l = State.loads st in
          let scratch = Loads.of_mapping (State.mapping st) in
          let arrays_close x y = Array.for_all2 close x y in
          arrays_close l.Loads.sigma scratch.Loads.sigma
          && arrays_close l.Loads.c_in scratch.Loads.c_in
          && arrays_close l.Loads.c_out scratch.Loads.c_out
          && close (Loads.max_cycle_time l) (Loads.max_cycle_time scratch))

(* ------------------------------------------------------------------ *)
(* Flat State arrays vs a from-mapping reference                       *)
(* ------------------------------------------------------------------ *)

module Rset = Set.Make (Int)

(* The committed stage/support values live in flat arrays indexed by
   [task * copies + copy]; recompute both from the mapping's source lists
   alone (memoized recursion over Set.Make(Int) for the kill sets) and
   check the arrays agree replica by replica. *)
let prop_flat_state_matches_reference =
  QCheck.Test.make
    ~name:"flat stage/support arrays match a from-mapping reference"
    ~count:40 seed_arb (fun seed ->
      match state_of_seed seed with
      | Error _ -> true
      | Ok st ->
          let m = State.mapping st in
          let proc_of (id : Replica.id) =
            (Mapping.replica_exn m id.Replica.task id.Replica.copy).Replica.proc
          in
          let stage_memo = Hashtbl.create 64 in
          let supp_memo = Hashtbl.create 64 in
          let rec ref_stage (id : Replica.id) =
            match Hashtbl.find_opt stage_memo id with
            | Some v -> v
            | None ->
                let r = Mapping.replica_exn m id.Replica.task id.Replica.copy in
                let v =
                  List.fold_left
                    (fun acc (_, ids) ->
                      List.fold_left
                        (fun acc (src : Replica.id) ->
                          let eta =
                            if proc_of src = r.Replica.proc then 0 else 1
                          in
                          max acc (ref_stage src + eta))
                        acc ids)
                    1 r.Replica.sources
                in
                Hashtbl.add stage_memo id v;
                v
          in
          let rec ref_supp (id : Replica.id) =
            match Hashtbl.find_opt supp_memo id with
            | Some v -> v
            | None ->
                let r = Mapping.replica_exn m id.Replica.task id.Replica.copy in
                let v =
                  List.fold_left
                    (fun acc (_, ids) ->
                      match ids with
                      | [] -> acc
                      | [ src ] -> Rset.union acc (ref_supp src)
                      | first :: rest ->
                          if List.length ids = Mapping.n_copies m then acc
                          else
                            Rset.union acc
                              (List.fold_left
                                 (fun i src -> Rset.inter i (ref_supp src))
                                 (ref_supp first) rest))
                    (Rset.singleton r.Replica.proc)
                    r.Replica.sources
                in
                Hashtbl.add supp_memo id v;
                v
          in
          let ok = ref true in
          Mapping.iter m (fun r ->
              let id = r.Replica.id in
              if State.stage st id <> ref_stage id then ok := false;
              if Rset.elements (ref_supp id)
                 <> Bitset.elements (State.support st id)
              then ok := false;
              if Float.is_nan (State.finish st id) then ok := false);
          !ok)

(* ------------------------------------------------------------------ *)
(* Bitset vs Set.Make (Int)                                            *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

let sets_of_seed seed =
  let rng = Rng.create ~seed in
  let random_list () =
    List.init (Rng.int rng 40) (fun _ -> Rng.int rng 200)
  in
  let la = random_list () and lb = random_list () in
  ((Bitset.of_list la, Iset.of_list la), (Bitset.of_list lb, Iset.of_list lb))

let mirrors b s = Bitset.elements b = Iset.elements s

let prop_bitset_matches_set =
  QCheck.Test.make ~name:"bitset ops agree with the Set.Make(Int) reference"
    ~count:200 seed_arb (fun seed ->
      let (ba, sa), (bb, sb) = sets_of_seed seed in
      mirrors ba sa && mirrors bb sb
      && mirrors (Bitset.union ba bb) (Iset.union sa sb)
      && mirrors (Bitset.inter ba bb) (Iset.inter sa sb)
      && mirrors (Bitset.diff ba bb) (Iset.diff sa sb)
      && Bitset.disjoint ba bb = Iset.disjoint sa sb
      && Bitset.subset ba bb = Iset.subset sa sb
      && Bitset.cardinal ba = Iset.cardinal sa
      && Bitset.is_empty ba = Iset.is_empty sa
      && List.for_all
           (fun x -> Bitset.mem x ba = Iset.mem x sa)
           (List.init 210 Fun.id)
      && Bitset.equal (Bitset.inter ba ba) ba
      && Bitset.fold (fun x acc -> x :: acc) ba []
         = Iset.fold (fun x acc -> x :: acc) sa [])

let prop_bitset_add_remove =
  QCheck.Test.make ~name:"bitset add/remove round-trips like the reference"
    ~count:200 seed_arb (fun seed ->
      let rng = Rng.create ~seed in
      let steps = List.init 60 (fun _ -> (Rng.int rng 2 = 0, Rng.int rng 300)) in
      let b, s =
        List.fold_left
          (fun (b, s) (add, x) ->
            if add then (Bitset.add x b, Iset.add x s)
            else (Bitset.remove x b, Iset.remove x s))
          (Bitset.empty, Iset.empty) steps
      in
      mirrors b s
      (* normalization: equal contents imply structural equality *)
      && Bitset.equal b (Bitset.of_list (Iset.elements s))
      && Bitset.compare b (Bitset.of_list (Iset.elements s)) = 0)

let bitset_tests =
  [
    case "singleton and negative elements" (fun () ->
        check_true "mem" (Bitset.mem 63 (Bitset.singleton 63));
        check_true "not mem" (not (Bitset.mem 62 (Bitset.singleton 63)));
        check_true "mem negative is false" (not (Bitset.mem (-1) Bitset.empty));
        Alcotest.check_raises "singleton -1"
          (Invalid_argument "Bitset.singleton: negative element") (fun () ->
            ignore (Bitset.singleton (-1))));
    case "empty removal keeps the representation canonical" (fun () ->
        let s = Bitset.remove 100 (Bitset.add 100 Bitset.empty) in
        check_true "is_empty" (Bitset.is_empty s);
        check_true "equal empty" (Bitset.equal s Bitset.empty));
  ]

(* ------------------------------------------------------------------ *)
(* Pinned regression: figure samples and schedule fingerprints         *)
(* ------------------------------------------------------------------ *)

(* The bound, sim, meets and ff fields were captured on the
   pre-incremental engine; the incremental state, bitset kill sets and
   restriction fast path must reproduce them bit for bit.  The crash
   fields were re-pinned when stage-model crash draws moved to per-draw
   child seeds. *)
let pinned_samples =
  [
    "g=0.6 ltf=(420,380,393.33333333333331,false) \
     rltf=(420,300,353.33333333333331,false) ff=170";
    "g=0.6 ltf=(380,300,313.33333333333331,false) \
     rltf=(380,300,326.66666666666669,false) ff=150";
    "g=1.0 ltf=(380,300,326.66666666666669,true) \
     rltf=(300,220,273.33333333333331,true) ff=110";
    "g=1.0 ltf=(380,340,340,true) rltf=(260,220,220,false) ff=130";
  ]

let pinned_ltf_digest = "3451d182152d61149471dcfa142c5e32"
let pinned_rltf_digest = "3444c193041d492b90169cd79973f9e8"

(* The registry's [huge-small] point (v=2000, m=50); guards the whole
   scaling path — Huge generation through Spec, flat placement, and the
   clustered C-LTF expansion — against silent drift. *)
let pinned_huge_ltf_digest = "a2bdbcb8820260d28eaabcc3086b5a4f"
let pinned_huge_cltf_digest = "42a874c0cd0230bdc50bbd5eab61c27c"

let fingerprint mapping =
  let parts = ref [] in
  Mapping.iter mapping (fun r ->
      parts :=
        Printf.sprintf "%s@%d" (Replica.id_to_string r.Replica.id) r.Replica.proc
        :: !parts);
  String.concat ";" (List.rev !parts)

let regression_tests =
  [
    slow_case "figure samples are bit-identical to the pinned run" (fun () ->
        let config =
          {
            (Fig_common.quick ~eps:1 ~crashes:1) with
            Fig_common.graphs_per_point = 2;
            granularities = [ 0.6; 1.0 ];
          }
        in
        let lines =
          Fig_common.collect config
          |> List.map (fun (s : Fig_common.sample) ->
                 Printf.sprintf
                   "g=%.1f ltf=(%.17g,%.17g,%.17g,%b) \
                    rltf=(%.17g,%.17g,%.17g,%b) ff=%.17g"
                   s.Fig_common.granularity s.ltf.Fig_common.bound s.ltf.sim
                   s.ltf.crash s.ltf.meets s.rltf.Fig_common.bound s.rltf.sim
                   s.rltf.crash s.rltf.meets s.ff_sim)
        in
        Alcotest.(check (list string)) "samples" pinned_samples lines);
    case "paper-instance schedules are bit-identical to the pinned run"
      (fun () ->
        let inst =
          let rng = Rng.create ~seed:11 in
          Spec.generate Spec.default ~rng ~granularity:1.0 ()
        in
        let prob =
          Types.problem ~dag:inst.Paper_workload.dag
            ~platform:inst.Paper_workload.plat ~eps:1
            ~throughput:(Paper_workload.throughput ~eps:1)
        in
        let opts = Scheduler.(default |> with_mode Best_effort) in
        (match Ltf.schedule ~opts prob with
        | Ok m ->
            Alcotest.(check string)
              "LTF" pinned_ltf_digest
              (Digest.to_hex (Digest.string (fingerprint m)))
        | Error f -> Alcotest.failf "LTF failed: %s" (Types.failure_to_string f));
        match Rltf.schedule ~opts prob with
        | Ok m ->
            Alcotest.(check string)
              "R-LTF" pinned_rltf_digest
              (Digest.to_hex (Digest.string (fingerprint m)))
        | Error f ->
            Alcotest.failf "R-LTF failed: %s" (Types.failure_to_string f));
    case "huge-small schedules are bit-identical to the pinned run" (fun () ->
        let spec =
          match Spec.find "huge-small" with
          | Some s -> s
          | None -> Alcotest.fail "huge-small not registered"
        in
        let opts = Scheduler.(default |> with_mode Best_effort) in
        let schedule_with (module A : Sched_api.Algo) =
          let rng = Rng.create ~seed:42 in
          let inst = Spec.generate spec ~rng ~granularity:1.0 () in
          let prob =
            Types.problem ~dag:inst.Paper_workload.dag
              ~platform:inst.Paper_workload.plat ~eps:1
              ~throughput:(Spec.throughput spec ~eps:1)
          in
          match A.run ~opts prob with
          | Ok m -> Digest.to_hex (Digest.string (fingerprint m))
          | Error f ->
              Alcotest.failf "%s failed: %s" A.name (Types.failure_to_string f)
        in
        Alcotest.(check string) "LTF" pinned_huge_ltf_digest
          (schedule_with Ltf.algo);
        match Baseline_registry.find "C-LTF" with
        | None -> Alcotest.fail "C-LTF not registered"
        | Some a ->
            Alcotest.(check string) "C-LTF" pinned_huge_cltf_digest
              (schedule_with a));
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ("loads", [ to_alcotest prop_state_loads_match_scratch ]);
      ("state", [ to_alcotest prop_flat_state_matches_reference ]);
      ( "bitset",
        bitset_tests
        @ [ to_alcotest prop_bitset_matches_set;
            to_alcotest prop_bitset_add_remove;
          ] );
      ("regression", regression_tests);
    ]
