(* Pure fault-scenario descriptions: plain data plus deterministic draw
   functions.  No simulator state lives here — the engine, the failure
   generator and the reliability calculus all consume this one
   vocabulary. *)

let check_window what ~procs (u, t0, t1) =
  if u < 0 || u >= procs then
    invalid_arg (Printf.sprintf "Faults: %s window processor out of range" what);
  if not (Float.is_finite t0) || not (Float.is_finite t1) || t0 < 0.0 then
    invalid_arg (Printf.sprintf "Faults: %s window bounds must be finite and non-negative" what);
  if t1 < t0 then
    invalid_arg (Printf.sprintf "Faults: %s window ends before it starts" what)

let check_rate what r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Faults: %s rate outside [0, 1]" what)

(* ---- retry / timeout / backoff ---------------------------------------- *)

module Backoff = struct
  type t = { max_retries : int; base_delay : float; multiplier : float }

  let none = { max_retries = 0; base_delay = 0.0; multiplier = 1.0 }

  let validate t =
    if t.max_retries < 0 then invalid_arg "Faults.Backoff: max_retries < 0";
    if t.base_delay < 0.0 || not (Float.is_finite t.base_delay) then
      invalid_arg "Faults.Backoff: base_delay must be finite and non-negative";
    if t.multiplier < 0.0 || not (Float.is_finite t.multiplier) then
      invalid_arg "Faults.Backoff: multiplier must be finite and non-negative"

  let make ?(base_delay = 0.0) ?(multiplier = 2.0) ~max_retries () =
    let t = { max_retries; base_delay; multiplier } in
    validate t;
    t

  let delay t ~attempt =
    if attempt < 1 then invalid_arg "Faults.Backoff.delay: attempt < 1";
    if t.base_delay = 0.0 then 0.0
    else t.base_delay *. (t.multiplier ** float_of_int (attempt - 1))

end

(* ---- deterministic Bernoulli draws ------------------------------------ *)

(* SplitMix64 finalizer: a high-quality 64-bit mix.  The draw for one
   attempt is a pure hash of (seed, salt, key, attempt) — no stream, no
   order dependence — so the same scenario replays bit-identically
   whatever else the run does, and scaling the rate only grows the
   failing set (each (key, attempt) keeps its own fixed uniform).  The
   three are inlined so the intermediate Int64s stay unboxed without
   flambda: a draw allocates nothing. *)
let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let[@inline] feed st x = mix64 (Int64.add st (Int64.mul golden (Int64.of_int x)))

let[@inline] uniform ~seed ~salt ~key ~attempt =
  let st = mix64 (Int64.logxor (Int64.of_int seed) 0x5851f42d4c957f2dL) in
  let st = feed st salt in
  let st = feed st key in
  let st = feed st attempt in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical st 11) *. 0x1.0p-53

let flip ~seed ~salt ~key ~attempt p = uniform ~seed ~salt ~key ~attempt < p

(* ---- transient faults -------------------------------------------------- *)

module Transient = struct
  type t = {
    exec_rate : float;
    comm_rate : float;
    exec_windows : (int * float * float) list;
    comm_windows : (int * float * float) list;
    seed : int;
  }

  let none =
    { exec_rate = 0.0; comm_rate = 0.0; exec_windows = []; comm_windows = [];
      seed = 0 }

  let is_none t =
    t.exec_rate = 0.0 && t.comm_rate = 0.0 && t.exec_windows = []
    && t.comm_windows = []

  let rec in_window windows who clock slot =
    match windows with
    | [] -> false
    | (u, t0, t1) :: rest ->
        (u = who && clock.(slot) >= t0 && clock.(slot) < t1)
        || in_window rest who clock slot

  (* Distinct salts keep the execution and communication draw spaces
     disjoint even when the same (key, attempt) pair occurs in both. *)
  let exec_salt = 0x45584543 (* "EXEC" *)
  let comm_salt = 0x434f4d4d (* "COMM" *)

  let exec_fails t ~proc ~key ~attempt ~clock ~slot =
    in_window t.exec_windows proc clock slot
    || (t.exec_rate > 0.0
       && flip ~seed:t.seed ~salt:exec_salt ~key ~attempt t.exec_rate)

  let comm_fails t ~src ~key ~attempt ~clock ~slot =
    in_window t.comm_windows src clock slot
    || (t.comm_rate > 0.0
       && flip ~seed:t.seed ~salt:comm_salt ~key ~attempt t.comm_rate)
end

(* ---- gray failures ----------------------------------------------------- *)

module Gray = struct
  type window = { g_from : float; g_until : float; factor : float }

  type t = {
    stragglers : (int * window) list;
    links : ((int * int) * window) list;
  }

  let none = { stragglers = []; links = [] }
  let is_none t = t.stragglers = [] && t.links = []

  let active w at = at >= w.g_from && at < w.g_until

  let exec_factor t ~proc ~at =
    match t.stragglers with
    | [] -> 1.0
    | stragglers ->
        List.fold_left
          (fun acc (u, w) -> if u = proc && active w at then acc *. w.factor else acc)
          1.0 stragglers

  let comm_factor t ~src ~dst ~at =
    match t.links with
    | [] -> 1.0
    | links ->
        List.fold_left
          (fun acc ((s, d), w) ->
            if s = src && d = dst && active w at then acc *. w.factor else acc)
          1.0 links
end

(* ---- correlated failure domains ---------------------------------------- *)

module Domains = struct
  type t = { d_members : int array array; d_of : int array }

  let make ~procs groups =
    if procs < 0 then invalid_arg "Faults.Domains.make: negative processor count";
    let seen = Array.make procs false in
    let listed =
      List.map
        (fun group ->
          if group = [] then invalid_arg "Faults.Domains.make: empty domain";
          List.iter
            (fun u ->
              if u < 0 || u >= procs then
                invalid_arg "Faults.Domains.make: processor out of range";
              if seen.(u) then
                invalid_arg "Faults.Domains.make: processor in two domains";
              seen.(u) <- true)
            group;
          Array.of_list (List.sort_uniq compare group))
        groups
    in
    (* Unlisted processors become singleton domains after the listed
       groups, in index order. *)
    let singles = ref [] in
    for u = procs - 1 downto 0 do
      if not seen.(u) then singles := [| u |] :: !singles
    done;
    let members = Array.of_list (listed @ !singles) in
    let d_of = Array.make procs (-1) in
    Array.iteri (fun d group -> Array.iter (fun u -> d_of.(u) <- d) group) members;
    { d_members = members; d_of }

  let racks ~size ~procs =
    if size < 1 then invalid_arg "Faults.Domains.racks: size < 1";
    if procs < 0 then invalid_arg "Faults.Domains.racks: negative processor count";
    let n = (procs + size - 1) / size in
    let groups =
      List.init n (fun r ->
          List.init (min size (procs - (r * size))) (fun i -> (r * size) + i))
    in
    make ~procs groups

  let count t = Array.length t.d_members
  let procs t = Array.length t.d_of
  let members t d = Array.to_list t.d_members.(d)
  let domain_of t u = t.d_of.(u)
end

(* ---- the full scenario ------------------------------------------------- *)

type t = { transient : Transient.t; retry : Backoff.t; gray : Gray.t }

let none = { transient = Transient.none; retry = Backoff.none; gray = Gray.none }
let is_none t = Transient.is_none t.transient && Gray.is_none t.gray

let check_gray_window what w =
  if
    not (Float.is_finite w.Gray.g_from)
    || not (Float.is_finite w.Gray.g_until)
    || w.Gray.g_from < 0.0
  then
    invalid_arg
      (Printf.sprintf "Faults: %s window bounds must be finite and non-negative"
         what);
  if w.Gray.g_until < w.Gray.g_from then
    invalid_arg (Printf.sprintf "Faults: %s window ends before it starts" what);
  if not (Float.is_finite w.Gray.factor) || w.Gray.factor <= 0.0 then
    invalid_arg
      (Printf.sprintf "Faults: %s factor must be finite and positive" what)

let validate ~procs t =
  Backoff.validate t.retry;
  check_rate "exec" t.transient.Transient.exec_rate;
  check_rate "comm" t.transient.Transient.comm_rate;
  List.iter (check_window "exec" ~procs) t.transient.Transient.exec_windows;
  List.iter (check_window "comm" ~procs) t.transient.Transient.comm_windows;
  List.iter
    (fun (u, w) ->
      if u < 0 || u >= procs then
        invalid_arg "Faults: straggler processor out of range";
      check_gray_window "straggler" w)
    t.gray.Gray.stragglers;
  List.iter
    (fun ((s, d), w) ->
      if s < 0 || s >= procs || d < 0 || d >= procs then
        invalid_arg "Faults: link endpoint out of range";
      check_gray_window "link" w)
    t.gray.Gray.links
