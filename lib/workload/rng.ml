(* SplitMix64 (Steele, Lea, Flood 2014): tiny state, good quality, and the
   split operation gives independent streams for parallel experiments. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t x =
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. x

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: non-positive rate";
  (* float is uniform in [0, 1), so 1 - u is in (0, 1] and the log is
     finite. *)
  -.log1p (-.float t 1.0) /. rate
let uniform_int t ~lo ~hi = lo + int t (hi - lo + 1)
let bool t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))
