(* Structure-of-arrays binary heap of immediate ints ordered by (key,
   insertion sequence number).  Keys live in a [float array] so they are
   stored unboxed, and values are ints, so no store is a [caml_modify]:
   [add]/[unsafe_pop] allocate nothing.  Sifts move a hole
   instead of swapping, writing each displaced element once. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let is_empty h = h.len = 0
let size h = h.len

(* Resetting [next_seq] is load-bearing: equal-key ties are served in
   insertion order, so a reused heap must renumber from 0 to replay the
   exact event order a fresh heap would. *)
let clear h =
  h.len <- 0;
  h.next_seq <- 0

let grow h =
  let cap = max 16 (2 * Array.length h.keys) in
  let keys = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let vals = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* The key arrives through a caller-owned one-slot float array instead
   of a [float] parameter: without flambda a float argument is boxed at
   every call, while the slot is just a pointer and its read below is an
   unboxed load.  The new element carries the largest sequence number,
   so it rises past a parent only on a strictly smaller key. *)
let add h slot value =
  if h.len = Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let key = slot.(0) in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.len in
  h.len <- !i + 1;
  while !i > 0 && key < keys.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    keys.(!i) <- keys.(parent);
    seqs.(!i) <- seqs.(parent);
    vals.(!i) <- vals.(parent);
    i := parent
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let unsafe_pop h =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let top = vals.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Sift the former last element down from the root's hole. *)
    let key = keys.(last) and seq = seqs.(last) and value = vals.(last) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if keys.(c) < key || (keys.(c) = key && seqs.(c) < seq) then begin
          keys.(!i) <- keys.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    vals.(!i) <- value
  end;
  top
