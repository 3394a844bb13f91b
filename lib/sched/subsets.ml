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

(* Depth-first: slot [idx] takes every processor from [from] on that still
   leaves room for the slots after it, each step flipping one mask entry. *)
let iter ~procs ~size f =
  if size < 0 || size > procs then
    invalid_arg "Subsets.iter: size outside [0, procs]";
  let dead = Array.make procs false and chosen = Array.make size 0 in
  let rec go idx from =
    if idx = size then f dead chosen
    else
      for u = from to procs - (size - idx) do
        chosen.(idx) <- u;
        dead.(u) <- true;
        go (idx + 1) (u + 1);
        dead.(u) <- false
      done
  in
  go 0 0
