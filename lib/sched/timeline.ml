(* Busy intervals on a resource: one growable pair of sorted float arrays
   (starts, finishes), edited in place.  Queries binary-search the starts
   instead of scanning from the head, which keeps million-task schedules
   cheap.  A probe's tentative intervals ride in a short sorted list that
   queries merge with the committed arrays, committed entries first on
   equal starts — the order in which they were inserted. *)

type t = {
  mutable starts : float array;
  mutable finishes : float array; (* same indexing *)
  mutable n : int;
}

type probe = (float * float) list

let eps = 1e-12

let create () = { starts = [||]; finishes = [||]; n = 0 }

(* Where a scan from [ready] starts: one before the first index with
   starts.(i) >= ready -. eps (or 0).  Every interval before that first
   index satisfies s + eps < ready and (by disjointness, up to the eps
   slack) f <= s_next + eps < ready + 2eps; only the last of them may span
   [ready], so the scan steps back to it. *)
let first_from t ~ready =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) < ready -. eps then lo := mid + 1 else hi := mid
  done;
  max 0 (!lo - 1)

(* Whether the merged (committed, probe) walk takes committed index [i]
   next: committed entries go first on equal starts. *)
let committed_next t i probe =
  i < t.n && match probe with [] -> true | (ps, _) :: _ -> t.starts.(i) <= ps

let earliest_fit ?(probe = []) t ~ready ~duration =
  if duration < 0.0 then invalid_arg "Timeline.earliest_fit: negative duration";
  (* Skip a busy interval by advancing past its finish; stop at the first
     gap wide enough. *)
  let rec scan candidate i probe =
    if committed_next t i probe then begin
      let s = t.starts.(i) and f = t.finishes.(i) in
      if candidate +. duration <= s +. eps then candidate
      else scan (Float.max candidate f) (i + 1) probe
    end
    else
      match probe with
      | [] -> candidate
      | (s, f) :: rest ->
          if candidate +. duration <= s +. eps then candidate
          else scan (Float.max candidate f) i rest
  in
  scan ready (first_from t ~ready) probe

(* Intervals skipped by [first_from] end before [start], so checking from
   there on is a full overlap check. *)
let check_no_overlap ~fn t probe ~start ~finish =
  let overlap s f =
    if finish > s +. eps && f > start +. eps then
      invalid_arg (fn ^ ": overlapping interval")
  in
  let rec check i probe =
    if committed_next t i probe then begin
      let s = t.starts.(i) in
      overlap s t.finishes.(i);
      if s < finish then check (i + 1) probe
    end
    else
      match probe with
      | [] -> ()
      | (s, f) :: rest ->
          overlap s f;
          if s < finish then check i rest
  in
  check (first_from t ~ready:start) probe

let insert t ~start ~duration =
  if duration < 0.0 then invalid_arg "Timeline.insert: negative duration";
  if duration > 0.0 then begin
    let finish = start +. duration in
    check_no_overlap ~fn:"Timeline.insert" t [] ~start ~finish;
    if t.n = Array.length t.starts then begin
      let cap = max 8 (2 * t.n) in
      let grow a =
        let b = Array.make cap 0.0 in
        Array.blit a 0 b 0 t.n;
        b
      in
      t.starts <- grow t.starts;
      t.finishes <- grow t.finishes
    end;
    (* Slot after every interval starting at or before [start]. *)
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.starts.(mid) <= start then lo := mid + 1 else hi := mid
    done;
    let i = !lo in
    Array.blit t.starts i t.starts (i + 1) (t.n - i);
    Array.blit t.finishes i t.finishes (i + 1) (t.n - i);
    t.starts.(i) <- start;
    t.finishes.(i) <- finish;
    t.n <- t.n + 1
  end

let tentative ?(probe = []) t ~start ~duration =
  if duration < 0.0 then invalid_arg "Timeline.tentative: negative duration";
  if duration = 0.0 then probe
  else begin
    let finish = start +. duration in
    check_no_overlap ~fn:"Timeline.tentative" t probe ~start ~finish;
    let rec place = function
      | (s, _) as iv :: rest when s <= start -> iv :: place rest
      | later -> (start, finish) :: later
    in
    place probe
  end

let busy_until t = if t.n = 0 then 0.0 else t.finishes.(t.n - 1)

let intervals t = List.init t.n (fun i -> (t.starts.(i), t.finishes.(i)))
