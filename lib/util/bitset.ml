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

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

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

let disjoint a b =
  let n = min (Array.length a) (Array.length b) in
  let rec scan i = i >= n || (a.(i) land b.(i) = 0 && scan (i + 1)) in
  scan 0

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
