let mean = function
  | [] -> nan
  | values -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let mean_by proj items =
  let values =
    List.filter_map
      (fun x ->
        let v = proj x in
        if Float.is_nan v then None else Some v)
      items
  in
  mean values

let median values =
  match List.sort compare values with
  | [] -> invalid_arg "Stats.median: empty sample"
  | sorted ->
      let n = List.length sorted in
      let nth k = List.nth sorted k in
      if n mod 2 = 1 then nth (n / 2)
      else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

(* Nan-on-empty policy (the discipline of a zero-draw crash estimate's
   defeat probability): an empty sample has no percentile, and [nan]
   propagates through downstream means and plots as a gap instead of
   silently reading as a value. *)
let percentile_sorted p a =
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  let n = Array.length a in
  if n = 0 then nan
  else begin
    (* Linear interpolation between closest ranks (the R-7 / NumPy
       default): rank h = p/100 · (n - 1). *)
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let percentile p values =
  let a = Array.of_list values in
  Array.sort compare a;
  percentile_sorted p a

type quantiles = {
  q_n : int;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let quantiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  {
    q_n = Array.length a;
    p50 = percentile_sorted 50.0 a;
    p95 = percentile_sorted 95.0 a;
    p99 = percentile_sorted 99.0 a;
    p999 = percentile_sorted 99.9 a;
  }

(* Expected-O(n) selection with three-way (Dutch-flag) partitioning and
   median-of-three pivots, so heavy duplicate runs — e.g. the latencies
   of a synchronous schedule, where thousands of items share one value —
   don't degrade to quadratic like Lomuto would.  Permutes [a]. *)
let nth_slice (a : float array) ~len k =
  let swap i j =
    if i <> j then begin
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    end
  in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let l = !lo and h = !hi in
    let mid = l + ((h - l) / 2) in
    if a.(mid) < a.(l) then swap mid l;
    if a.(h) < a.(l) then swap h l;
    if a.(h) < a.(mid) then swap h mid;
    let pivot = a.(mid) in
    let lt = ref l and gt = ref h and i = ref l in
    while !i <= !gt do
      if a.(!i) < pivot then begin
        swap !i !lt;
        incr lt;
        incr i
      end
      else if a.(!i) > pivot then begin
        swap !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

let percentile_slice p a ~len =
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  if len < 0 || len > Array.length a then
    invalid_arg "Stats.quantiles_slice: len outside [0, length]";
  if len = 0 then nan
  else begin
    let h = p /. 100.0 *. float_of_int (len - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (lo + 1) (len - 1) in
    let vlo = nth_slice a ~len lo in
    let vhi = if hi = lo then vlo else nth_slice a ~len hi in
    vlo +. ((h -. float_of_int lo) *. (vhi -. vlo))
  end

let quantiles_slice a ~len =
  {
    q_n = len;
    p50 = percentile_slice 50.0 a ~len;
    p95 = percentile_slice 95.0 a ~len;
    p99 = percentile_slice 99.0 a ~len;
    p999 = percentile_slice 99.9 a ~len;
  }

type reservoir = {
  r_buf : float array;
  r_rand_int : int -> int;
  mutable r_seen : int;
}

let reservoir_create ~cap ~rand_int =
  if cap < 1 then invalid_arg "Stats.reservoir_create: cap < 1";
  { r_buf = Array.make cap 0.0; r_rand_int = rand_int; r_seen = 0 }

(* Algorithm R: once full, item i replaces a random slot with probability
   cap/i, so every item seen so far is in the buffer equiprobably. *)
let reservoir_add r x =
  if not (Float.is_nan x) then begin
    let cap = Array.length r.r_buf in
    r.r_seen <- r.r_seen + 1;
    if r.r_seen <= cap then r.r_buf.(r.r_seen - 1) <- x
    else begin
      let j = r.r_rand_int r.r_seen in
      if j < cap then r.r_buf.(j) <- x
    end
  end

let reservoir_count r = r.r_seen

let reservoir_quantiles r =
  let kept = min r.r_seen (Array.length r.r_buf) in
  (* Selecting over the prefix in place is safe: the reservoir is an
     unordered multiset, so permuting retained slots changes nothing. *)
  let q = quantiles_slice r.r_buf ~len:kept in
  (* Report the true sample size: the quantiles are estimates over the
     retained subsample, but q_n = 0 must keep meaning "no data". *)
  { q with q_n = r.r_seen }
