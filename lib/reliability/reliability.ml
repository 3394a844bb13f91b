(* Minimal-cut-set calculus over the replica DAG.

   Every monotone event "replica contributes at stage >= s" is kept as an
   antichain of Bitset cuts (minimal processor sets forcing the event);
   [dead] is the threshold at infinity.  The recurrence mirrors the
   simulator's liveness sweep:

     val(r) >= s  <=>  proc(r) failed
                       \/ exists group g of r. forall src in g.
                            val(src) >= s - eta(src)

   with [infinity - eta = infinity], and for the whole schedule

     depth >= d   <=>  exists exit. forall copies. val(copy) >= d
     defeat       <=>  depth >= infinity.

   OR of families appends and re-minimizes; AND crosses unions.  Cuts only
   grow along the DP, so dropping every cut above a cardinality horizon is
   sound for any question about patterns with at most that many failures. *)

type model =
  | Uniform_crashes of int
  | Independent of (Platform.proc -> float)
  | Correlated of {
      domains : Faults.Domains.t;
      p_shock : int -> float;
      p_fail : Platform.proc -> float;
    }

type t = {
  t_graph : Replica_graph.t;
  t_max_card : int;
  t_fam : (int * int, Bitset.t list) Hashtbl.t;  (* (rid, threshold) *)
  mutable t_defeat : Bitset.t list option;
}

let procs t = t.t_graph.procs

(* ---- antichain algebra ------------------------------------------------ *)

let always = [ Bitset.empty ]
let never = []

(* Keep only minimal cuts within the cardinality horizon, canonically
   ordered so families can be compared and hashed structurally. *)
let minimize ~max_card cuts =
  let cuts =
    if max_card = max_int then cuts
    else List.filter (fun c -> Bitset.cardinal c <= max_card) cuts
  in
  let by_card =
    List.sort
      (fun a b ->
        let c = compare (Bitset.cardinal a) (Bitset.cardinal b) in
        if c <> 0 then c else Bitset.compare a b)
      cuts
  in
  let rec keep acc = function
    | [] -> acc
    | c :: rest ->
        if List.exists (fun k -> Bitset.subset k c) acc then keep acc rest
        else keep (c :: acc) rest
  in
  List.sort_uniq Bitset.compare (keep [] by_card)

let or_ ~max_card a b =
  match (a, b) with
  | [], f | f, [] -> f
  | _ -> minimize ~max_card (List.rev_append a b)

let and_ ~max_card a b =
  match (a, b) with
  | [], _ | _, [] -> never
  | [ e ], f when Bitset.is_empty e -> f
  | f, [ e ] when Bitset.is_empty e -> f
  | _ ->
      (* Most pairs of a pruned cross product die on the cardinality
         horizon; skipping them before building the union keeps the AND
         quadratic in the surviving cuts, not in the input family. *)
      let prods =
        List.concat_map
          (fun ca ->
            let card_a = Bitset.cardinal ca in
            List.filter_map
              (fun cb ->
                if
                  max_card <> max_int
                  && card_a + Bitset.cardinal cb > max_card
                  && Bitset.disjoint ca cb
                then None
                else
                  let u = Bitset.union ca cb in
                  if Bitset.cardinal u > max_card then None else Some u)
              b)
          a
      in
      minimize ~max_card prods

(* ---- threshold families over the replica DAG -------------------------- *)

let dead = max_int

let sub_threshold s eta = if s = dead then dead else s - eta

let rec family t rid s =
  if s <> dead && s <= 1 then always
  else
    match Hashtbl.find_opt t.t_fam (rid, s) with
    | Some f -> f
    | None ->
        let max_card = t.t_max_card and gr = t.t_graph in
        let acc = ref [ Bitset.singleton gr.proc.(rid) ] in
        for g = gr.grp_off.(rid) to gr.grp_off.(rid + 1) - 1 do
          let grp = ref always in
          for k = gr.src_off.(g) to gr.src_off.(g + 1) - 1 do
            if !grp <> never then
              grp :=
                and_ ~max_card !grp
                  (family t gr.src.(k) (sub_threshold s gr.eta.(k)))
          done;
          acc := or_ ~max_card !acc !grp
        done;
        let f = minimize ~max_card !acc in
        Hashtbl.add t.t_fam (rid, s) f;
        f

(* Event "effective depth >= d" (defeat included): some exit task has all
   of its copies at stage >= d. *)
let depth_family t d =
  Array.fold_left
    (fun acc exit_task ->
      let all = ref always in
      for copy = 0 to t.t_graph.copies - 1 do
        if !all <> never then
          let rid = (exit_task * t.t_graph.copies) + copy in
          all := and_ ~max_card:t.t_max_card !all (family t rid d)
      done;
      or_ ~max_card:t.t_max_card acc !all)
    never t.t_graph.exits

let defeat_cut_sets t =
  match t.t_defeat with
  | Some f -> f
  | None ->
      let f = depth_family t dead in
      Obs.observe "rel.defeat_cuts" (float_of_int (List.length f));
      t.t_defeat <- Some f;
      f

(* ---- construction ------------------------------------------------------ *)

let analyze ?(max_cut_card = max_int) m =
  Obs.with_span "rel.analyze" (fun () ->
      Obs.incr "rel.analyses";
      if not (Mapping.is_complete m) then
        invalid_arg "Reliability.analyze: mapping is not complete";
      if max_cut_card < 0 then
        invalid_arg "Reliability.analyze: negative cut horizon";
      {
        t_graph = Replica_graph.compile m;
        t_max_card = max_cut_card;
        t_fam = Hashtbl.create 97;
        t_defeat = None;
      })

(* ---- probability evaluation ------------------------------------------- *)

let binom n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let r = ref 1.0 in
    for i = 1 to k do
      r := !r *. float_of_int (n - k + i) /. float_of_int i
    done;
    !r
  end

let support cuts = List.fold_left Bitset.union Bitset.empty cuts

(* Counting polynomial of a family restricted to its support: [n.(j)] is
   the number of [j]-subsets of [sup.(i..)] containing some cut.  Shannon
   decomposition on the pivot [sup.(i)], memoized on the residual family
   (cuts at depth [i] only mention [sup.(i..)], so the pair is a sound
   key). *)
let count_defeating cuts sup =
  let s = Array.length sup in
  let memo : (Bitset.t list * int, float array) Hashtbl.t =
    Hashtbl.create 97
  in
  let rec go cuts i =
    let len = s - i in
    if cuts = [] then Array.make (len + 1) 0.0
    else if List.exists Bitset.is_empty cuts then
      Array.init (len + 1) (fun j -> binom len j)
    else begin
      match Hashtbl.find_opt memo (cuts, i) with
      | Some r -> r
      | None ->
          let u = sup.(i) in
          let failed =
            minimize ~max_card:max_int
              (List.map (fun c -> Bitset.remove u c) cuts)
          in
          let alive = List.filter (fun c -> not (Bitset.mem u c)) cuts in
          let pf = go failed (i + 1) and pa = go alive (i + 1) in
          let r =
            Array.init (len + 1) (fun j ->
                (if j > 0 then pf.(j - 1) else 0.0)
                +. (if j <= len - 1 then pa.(j) else 0.0))
          in
          Hashtbl.add memo (cuts, i) r;
          r
    end
  in
  go cuts 0

let uniform_probability ~procs ~crashes cuts =
  if List.exists Bitset.is_empty cuts then 1.0
  else if cuts = [] then 0.0
  else begin
    let sup = Array.of_list (Bitset.elements (support cuts)) in
    let s = Array.length sup in
    let n = count_defeating cuts sup in
    let rec sum j acc =
      if j > min s crashes then acc
      else sum (j + 1) (acc +. (n.(j) *. binom (procs - s) (crashes - j)))
    in
    sum 0 0.0 /. binom procs crashes
  end

let check_pfail ~pfail u =
  let q = pfail u in
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Reliability: Independent probability outside [0, 1]";
  q

let independent_probability ~pfail cuts =
  let memo : (Bitset.t list, float) Hashtbl.t = Hashtbl.create 97 in
  let pivot cuts =
    List.fold_left
      (fun acc c ->
        match Bitset.min_elt c with
        | Some x -> min acc x
        | None -> acc)
      max_int cuts
  in
  let rec go cuts =
    if cuts = [] then 0.0
    else if List.exists Bitset.is_empty cuts then 1.0
    else begin
      match Hashtbl.find_opt memo cuts with
      | Some p -> p
      | None ->
          let u = pivot cuts in
          let q = check_pfail ~pfail u in
          let failed =
            minimize ~max_card:max_int
              (List.map (fun c -> Bitset.remove u c) cuts)
          in
          let alive = List.filter (fun c -> not (Bitset.mem u c)) cuts in
          let p = (q *. go failed) +. ((1.0 -. q) *. go alive) in
          Hashtbl.add memo cuts p;
          p
    end
  in
  go cuts

(* Marshall–Olkin evaluation: condition on the set of shocked domains.
   Given the shock pattern, processors are independent again — members of
   a shocked domain are dead with probability 1, everyone else with its
   idiosyncratic [p_fail] — so each of the [2^D] terms is one
   [independent_probability] call weighted by the pattern's probability.
   Exact, and exponential only in the domain count, which the cap keeps
   honest. *)
let max_correlated_domains = 20

let correlated_probability t ~domains ~p_shock ~p_fail cuts =
  if Faults.Domains.procs domains <> procs t then
    invalid_arg "Reliability: Correlated domains partition a different platform";
  let n_domains = Faults.Domains.count domains in
  if n_domains > max_correlated_domains then
    invalid_arg "Reliability: Correlated model limited to 20 domains";
  let ps =
    Array.init n_domains (fun d ->
        let q = p_shock d in
        if not (q >= 0.0 && q <= 1.0) then
          invalid_arg "Reliability: Correlated shock probability outside [0, 1]";
        q)
  in
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n_domains) - 1 do
    let weight = ref 1.0 in
    for d = 0 to n_domains - 1 do
      weight :=
        !weight *. (if mask land (1 lsl d) <> 0 then ps.(d) else 1.0 -. ps.(d))
    done;
    if !weight > 0.0 then begin
      let pfail u =
        if mask land (1 lsl (Faults.Domains.domain_of domains u)) <> 0 then 1.0
        else check_pfail ~pfail:p_fail u
      in
      total := !total +. (!weight *. independent_probability ~pfail cuts)
    end
  done;
  !total

let check_uniform t c =
  if c < 0 || c > procs t then
    invalid_arg "Reliability: crash count outside [0, m]";
  if c > t.t_max_card then
    invalid_arg "Reliability: crash count exceeds the analysis cut horizon"

let probability t cuts = function
  | Uniform_crashes c ->
      check_uniform t c;
      uniform_probability ~procs:(procs t) ~crashes:c cuts
  | Independent pfail ->
      if t.t_max_card <> max_int then
        invalid_arg "Reliability: Independent model needs an unpruned analysis";
      independent_probability ~pfail cuts
  | Correlated { domains; p_shock; p_fail } ->
      if t.t_max_card <> max_int then
        invalid_arg "Reliability: Correlated model needs an unpruned analysis";
      correlated_probability t ~domains ~p_shock ~p_fail cuts

(* ---- uniform enumeration fast path ------------------------------------- *)

(* When choose (m, c) is small, replaying the oracle sweep on every
   c-subset answers the Uniform_crashes questions exactly in
   O(choose (m, c) * replicas) — usually far cheaper than the antichain
   DP, which pays per (replica, threshold) pair.  Both paths are exact;
   the tests hold them equal pattern-for-pattern, and [enumerate_below]
   lets a caller force either one. *)
let default_enumeration_budget = 20_000

let foreach_subset m c f =
  let chosen = Array.make (max 1 c) 0 in
  let rec go idx from =
    if idx = c then f (Array.to_list (Array.sub chosen 0 c))
    else
      for u = from to m - (c - idx) do
        chosen.(idx) <- u;
        go (idx + 1) (u + 1)
      done
  in
  go 0 0

(* (defeat probability, finite-depth distribution) in one sweep. *)
let uniform_enumeration t ~crashes =
  let total = binom (procs t) crashes in
  let defeated = ref 0.0 in
  let hist = Hashtbl.create 16 in
  foreach_subset (procs t) crashes (fun failed ->
      match Replica_graph.depth ~failed t.t_graph with
      | None -> defeated := !defeated +. 1.0
      | Some d ->
          Hashtbl.replace hist d
            (1.0 +. Option.value ~default:0.0 (Hashtbl.find_opt hist d)));
  let dist =
    Hashtbl.fold (fun d n acc -> (d, n /. total) :: acc) hist []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  (!defeated /. total, dist)

let enumerable t ~budget = function
  | Independent _ | Correlated _ -> None
  | Uniform_crashes c ->
      check_uniform t c;
      if binom (procs t) c <= float_of_int budget then Some c else None

let defeat_probability ?(enumerate_below = default_enumeration_budget) t model
    =
  match enumerable t ~budget:enumerate_below model with
  | Some c -> fst (uniform_enumeration t ~crashes:c)
  | None -> probability t (defeat_cut_sets t) model

let survival_probability t model = 1.0 -. defeat_probability t model

(* ---- depth and latency distributions ----------------------------------- *)

let family_equal a b = List.equal Bitset.equal a b

(* P(depth = d) by telescoping P(depth >= d) - P(depth >= d + 1); the
   iteration stops when the family collapses onto the defeat family (all
   remaining mass is defeat).  Finite depths are bounded by the task count
   (a stage grows by at most one per DAG hop). *)
let depth_distribution_by_families t model =
  let defeat = defeat_cut_sets t in
  let n_tasks = t.t_graph.tasks in
  let p_defeat = probability t defeat model in
  let entry d p acc = if p > 0.0 then (d, p) :: acc else acc in
  let rec walk d fam_d p_d acc =
    if family_equal fam_d defeat then List.rev acc
    else if d > n_tasks + 1 then List.rev acc
    else begin
      let fam_next = depth_family t (d + 1) in
      let p_next =
        if family_equal fam_next defeat then p_defeat
        else probability t fam_next model
      in
      walk (d + 1) fam_next p_next (entry d (p_d -. p_next) acc)
    end
  in
  let fam1 = depth_family t 1 in
  let p1 =
    if family_equal fam1 defeat then p_defeat else probability t fam1 model
  in
  (* depth 0 only happens for an empty task graph *)
  walk 1 fam1 p1 (entry 0 (1.0 -. p1) [])

let depth_distribution ?(enumerate_below = default_enumeration_budget) t model
    =
  match enumerable t ~budget:enumerate_below model with
  | Some c -> snd (uniform_enumeration t ~crashes:c)
  | None -> depth_distribution_by_families t model

let latency_of_depth ~throughput d =
  float_of_int ((2 * d) - 1) /. throughput

let latency_distribution t ~throughput model =
  List.map
    (fun (d, p) -> (latency_of_depth ~throughput d, p))
    (depth_distribution t model)

let expected_latency ?enumerate_below t ~throughput model =
  let dist = depth_distribution ?enumerate_below t model in
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  if mass <= 0.0 then None
  else
    Some
      (List.fold_left
         (fun acc (d, p) -> acc +. (latency_of_depth ~throughput d *. p))
         0.0 dist
      /. mass)

(* ---- closed-form product ----------------------------------------------- *)

(* Exact when every per-copy death family is a union of singleton cuts and
   the supports never share a processor: then copies fail independently of
   each other and of the other exits, and defeat is a plain product. *)
let closed_form_defeat t ~pfail =
  if t.t_max_card <> max_int then None
  else begin
    let exception Not_closed in
    try
      let seen = ref Bitset.empty in
      let p_defeat =
        Array.fold_left
          (fun p_no_defeat exit_task ->
            let p_exit_dead = ref 1.0 in
            for copy = 0 to t.t_graph.copies - 1 do
              let rid = (exit_task * t.t_graph.copies) + copy in
              let fam = family t rid dead in
              let sup =
                List.fold_left
                  (fun acc c ->
                    if Bitset.cardinal c <> 1 then raise Not_closed;
                    Bitset.union acc c)
                  Bitset.empty fam
              in
              if not (Bitset.disjoint sup !seen) then raise Not_closed;
              seen := Bitset.union !seen sup;
              let p_alive =
                Bitset.fold
                  (fun u acc -> acc *. (1.0 -. check_pfail ~pfail u))
                  sup 1.0
              in
              p_exit_dead := !p_exit_dead *. (1.0 -. p_alive)
            done;
            p_no_defeat *. (1.0 -. !p_exit_dead))
          1.0 t.t_graph.exits
      in
      Some (1.0 -. p_defeat)
    with Not_closed -> None
  end
