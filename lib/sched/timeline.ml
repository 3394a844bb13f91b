(* Busy intervals on a resource: one growable pair of sorted float arrays
   (starts, finishes), edited in place.  Queries search the starts
   instead of scanning from the head, which keeps million-task schedules
   cheap.  A probe's tentative intervals are a second, caller-owned
   timeline of the same shape, cleared between probes; queries merge it
   with the committed arrays, committed entries first on equal starts —
   the order in which they were inserted.  Every query is a loop over the
   two arrays and allocates nothing per interval it passes; the probe
   path ([fit], [joint_fit], [tentative]) takes its floats in a flat
   [query] record and inlines every helper that takes a float, so it
   boxes none. *)

type t = {
  mutable starts : float array;
  mutable finishes : float array; (* same indexing *)
  mutable n : int;
  mutable nested : bool; (* some committed interval lies inside another *)
}

type probe = t

type query = {
  mutable ready : float;
  mutable duration : float;
  mutable start : float;
}

let eps = 1e-12

let create () = { starts = [||]; finishes = [||]; n = 0; nested = false }
let probe = create
let clear p = p.n <- 0

(* The probe of a query that has none.  Never written. *)
let no_probe = create ()

(* The first index at or after [from] with starts.(i) >= ready -. eps (or
   [n]).  The predicate is monotone along the sorted starts and in
   [ready], so a caller whose [ready] only grows may pass the previous
   answer as [from] and gets the same index as a search from 0.  A list
   scheduler's ready times sit near the end of its timelines (on the
   paper-sweep workload 77% of the answers are the last index or [n], 90%
   within four of [n]; on flat LTF at m = 10³, 95% and 100%), so the
   search gallops down from the end before it bisects. *)
let[@inline] lower_bound t ~from ~ready =
  let bound = ready -. eps in
  let hi = ref t.n and step = ref 1 in
  while !hi - !step >= from && not (t.starts.(!hi - !step) < bound) do
    hi := !hi - !step;
    step := 2 * !step
  done;
  let lo = ref (if !hi - !step >= from then !hi - !step + 1 else from) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.starts.(mid) < bound then lo := mid + 1 else hi := mid
  done;
  !lo

(* [Float.max], bit for bit, without its C call to read a sign bit, which
   only equal zeros need: a scan takes it at every interval it passes. *)
let[@inline] later (x : float) (y : float) =
  if y > x then y
  else if y < x then x
  else if y = x then if x = 0.0 && Float.sign_bit x then y else x
  else Float.max x y

(* Where a scan from [ready] starts: one before [lower_bound] (or 0).
   Every interval before that first index starts before ready -. eps, and
   while none nests inside another their finishes grow with their starts,
   so only the last of them can reach past [ready]: the scan steps back to
   it.  An interval shorter than the slack can nest inside another and
   hide it; from then on scans start at the head. *)
let[@inline] scan_from t lo = if lo > 0 && not t.nested then lo - 1 else 0

(* The merged (committed from index [i], probe from its head) walk of
   [earliest_fit]: skip a busy interval by advancing past its finish; stop
   at the first gap wide enough. *)
let[@inline] scan t p i ~ready ~duration =
  let candidate = ref ready and i = ref i and j = ref 0 and fit = ref false in
  while not !fit do
    if !i < t.n && (!j >= p.n || t.starts.(!i) <= p.starts.(!j)) then begin
      if !candidate +. duration <= t.starts.(!i) +. eps then fit := true
      else begin
        candidate := later !candidate t.finishes.(!i);
        incr i
      end
    end
    else if !j < p.n then begin
      if !candidate +. duration <= p.starts.(!j) +. eps then fit := true
      else begin
        candidate := later !candidate p.finishes.(!j);
        incr j
      end
    end
    else fit := true
  done;
  !candidate

let fit ?(probe = no_probe) t q =
  let ready = q.ready and duration = q.duration in
  if duration < 0.0 then invalid_arg "Timeline.fit: negative duration";
  q.start <- scan t probe (scan_from t (lower_bound t ~from:0 ~ready)) ~ready ~duration

let earliest_fit ?probe t ~ready ~duration =
  let q = { ready; duration; start = 0.0 } in
  fit ?probe t q;
  q.start

(* The historical alternation, fit on [a] then on [b] until a round trip
   moves nothing, with each timeline's search resumed where its last one
   ended: both fit maps are monotone, so every [ready] handed to a
   timeline is at least the one before. *)
let joint_fit a pa b pb q =
  let ready = q.ready and duration = q.duration in
  if duration < 0.0 then invalid_arg "Timeline.joint_fit: negative duration";
  let la = ref (lower_bound a ~from:0 ~ready) and lb = ref 0 in
  let candidate = ref (scan a pa (scan_from a !la) ~ready ~duration) in
  let settled = ref false in
  while not !settled do
    let c = !candidate in
    la := lower_bound a ~from:!la ~ready:c;
    let ca = scan a pa (scan_from a !la) ~ready:c ~duration in
    lb := lower_bound b ~from:!lb ~ready:ca;
    let cb = scan b pb (scan_from b !lb) ~ready:ca ~duration in
    if cb = c then settled := true else candidate := cb
  done;
  q.start <- !candidate

let[@inline] overlap ~fn ~start ~finish s f =
  if finish > s +. eps && f > start +. eps then
    invalid_arg (fn ^ ": overlapping interval")

(* Intervals skipped by [scan_from] end before [start], so checking from
   there on (the probe from its head) is a full overlap check. *)
let[@inline] check_no_overlap ~fn t p ~start ~finish =
  let i = ref (scan_from t (lower_bound t ~from:0 ~ready:start)) in
  let j = ref 0 in
  let more = ref true in
  while !more do
    if !i < t.n && (!j >= p.n || t.starts.(!i) <= p.starts.(!j)) then begin
      let s = t.starts.(!i) in
      overlap ~fn ~start ~finish s t.finishes.(!i);
      if s < finish then incr i else more := false
    end
    else if !j < p.n then begin
      let s = p.starts.(!j) in
      overlap ~fn ~start ~finish s p.finishes.(!j);
      if s < finish then incr j else more := false
    end
    else more := false
  done

let grow t =
  let cap = if 2 * t.n > 8 then 2 * t.n else 8 in
  let starts = Array.make cap 0.0 and finishes = Array.make cap 0.0 in
  Array.blit t.starts 0 starts 0 t.n;
  Array.blit t.finishes 0 finishes 0 t.n;
  t.starts <- starts;
  t.finishes <- finishes

(* Store [[start, finish)] in the slot after every interval starting at
   or before [start], growing the arrays as needed, and return the slot.
   Inlined (so it holds no local function): its floats stay unboxed. *)
let[@inline] put t ~start ~finish =
  if t.n = Array.length t.starts then grow t;
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.starts.(mid) <= start then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < t.n then begin
    Array.blit t.starts i t.starts (i + 1) (t.n - i);
    Array.blit t.finishes i t.finishes (i + 1) (t.n - i)
  end;
  t.starts.(i) <- start;
  t.finishes.(i) <- finish;
  t.n <- t.n + 1;
  i

(* An interval whose finish does not come after its start, because its
   duration is zero or lost to rounding, is empty: storing nothing keeps
   every stored interval non-empty. *)
let insert t ~start ~duration =
  if duration < 0.0 then invalid_arg "Timeline.insert: negative duration";
  let finish = start +. duration in
  if finish > start then begin
    check_no_overlap ~fn:"Timeline.insert" t no_probe ~start ~finish;
    (* A finish that stops growing with the starts nests one interval in
       another. *)
    let i = put t ~start ~finish in
    if (i > 0 && not (t.finishes.(i - 1) <= finish))
       || (i + 1 < t.n && not (finish <= t.finishes.(i + 1)))
    then t.nested <- true
  end

let tentative t p q =
  let start = q.start and duration = q.duration in
  if duration < 0.0 then invalid_arg "Timeline.tentative: negative duration";
  let finish = start +. duration in
  if finish > start then begin
    check_no_overlap ~fn:"Timeline.tentative" t p ~start ~finish;
    ignore (put p ~start ~finish)
  end

let busy_until t =
  if t.nested then
    Array.fold_left later neg_infinity (Array.sub t.finishes 0 t.n)
  else if t.n = 0 then 0.0
  else t.finishes.(t.n - 1)

let intervals t = List.init t.n (fun i -> (t.starts.(i), t.finishes.(i)))
