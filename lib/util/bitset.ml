type elt = int

(* Little-endian words, [Sys.int_size] bits each, normalized: the last
   word is never 0.  Normalization makes structural equality and the
   polymorphic order agree with set semantics. *)
type t = int array

let word_bits = Sys.int_size

let empty : t = [||]
let is_empty s = Array.length s = 0

let check_elt name x =
  if x < 0 then invalid_arg ("Bitset." ^ name ^ ": negative element")

(* The number of words up to the last nonzero one. *)
let used_words (a : int array) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  !n

let normalize (a : int array) : t =
  let n = used_words a in
  if n = Array.length a then a else Array.sub a 0 n

let singleton x =
  check_elt "singleton" x;
  let w = x / word_bits in
  let a = Array.make (w + 1) 0 in
  a.(w) <- 1 lsl (x mod word_bits);
  a

let mem x s =
  x >= 0
  &&
  let w = x / word_bits in
  w < Array.length s && s.(w) land (1 lsl (x mod word_bits)) <> 0

let add x s =
  check_elt "add" x;
  if mem x s then s
  else begin
    let w = x / word_bits in
    let a = Array.make (max (w + 1) (Array.length s)) 0 in
    Array.blit s 0 a 0 (Array.length s);
    a.(w) <- a.(w) lor (1 lsl (x mod word_bits));
    a
  end

let remove x s =
  if not (mem x s) then s
  else begin
    let a = Array.copy s in
    let w = x / word_bits in
    a.(w) <- a.(w) land lnot (1 lsl (x mod word_bits));
    normalize a
  end

let union a b =
  let short, long = if Array.length a <= Array.length b then (a, b) else (b, a) in
  if Array.length short = 0 then long
  else begin
    let r = Array.copy long in
    for i = 0 to Array.length short - 1 do
      r.(i) <- r.(i) lor short.(i)
    done;
    r
  end

let inter a b =
  let n = min (Array.length a) (Array.length b) in
  normalize (Array.init n (fun i -> a.(i) land b.(i)))

let diff a b =
  let r = Array.copy a in
  let n = min (Array.length a) (Array.length b) in
  for i = 0 to n - 1 do
    r.(i) <- r.(i) land lnot b.(i)
  done;
  normalize r

(* A loop, not a local recursive scan: the scan would close over [a] and
   [b], and the scheduler tests disjointness per candidate replica. *)
let disjoint a b =
  let n = min (Array.length a) (Array.length b) and i = ref 0 in
  while !i < n && a.(!i) land b.(!i) = 0 do
    incr i
  done;
  !i >= n

let subset a b =
  let nb = Array.length b in
  let rec scan i =
    i >= Array.length a
    || ((i < nb && a.(i) land lnot b.(i) = 0) && scan (i + 1))
  in
  scan 0

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

let diff_cardinal a b =
  let nb = Array.length b and n = ref 0 in
  for i = 0 to Array.length a - 1 do
    n := !n + popcount (if i < nb then a.(i) land lnot b.(i) else a.(i))
  done;
  !n

(* An accumulator is a word array over the whole universe, never
   normalized: it is only read through [acc_growth] and [of_acc]. *)
type acc = int array

let acc ~universe =
  if universe < 0 then invalid_arg "Bitset.acc: negative universe";
  Array.make (max 1 (((universe - 1) / word_bits) + 1)) 0

let acc_reset a x =
  check_elt "acc_reset" x;
  for i = 0 to Array.length a - 1 do
    a.(i) <- 0
  done;
  a.(x / word_bits) <- 1 lsl (x mod word_bits)

let acc_union a s =
  for i = 0 to Array.length s - 1 do
    a.(i) <- a.(i) lor s.(i)
  done

let acc_growth a s = diff_cardinal s a

let of_acc a = Array.sub a 0 (used_words a)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let complement ~universe s =
  if universe < 0 then invalid_arg "Bitset.complement: negative universe";
  if universe = 0 then empty
  else begin
    let words = ((universe - 1) / word_bits) + 1 in
    let r = Array.make words 0 in
    for i = 0 to words - 1 do
      let full =
        if i = words - 1 && universe mod word_bits <> 0 then
          (1 lsl (universe mod word_bits)) - 1
        else -1
      in
      let have = if i < Array.length s then s.(i) else 0 in
      r.(i) <- full land lnot have
    done;
    normalize r
  end

let min_elt s =
  let n = Array.length s in
  let rec scan i =
    if i >= n then None
    else if s.(i) = 0 then scan (i + 1)
    else begin
      let lsb = s.(i) land - s.(i) in
      Some ((i * word_bits) + popcount (lsb - 1))
    end
  in
  scan 0

let fold f s init =
  let acc = ref init in
  Array.iteri
    (fun i w ->
      let base = i * word_bits in
      let rec bits w =
        if w <> 0 then begin
          let lsb = w land -w in
          acc := f (base + popcount (lsb - 1)) !acc;
          bits (w land (w - 1))
        end
      in
      bits w)
    s;
  !acc

let elements s = List.rev (fold (fun x acc -> x :: acc) s [])

let of_list l = List.fold_left (fun s x -> add x s) empty l
