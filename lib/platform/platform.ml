type proc = int

(* The aggregates are folded once when the platform is built: priority
   weights read them per DAG edge, and the O(m²) matrix scans would
   otherwise rerun on every read. *)
type t = {
  name : string;
  speeds : float array;
  bw : float array array;
  inv_speed_mean : float;
  unit_delay_mean : float;
  min_speed : float;
  min_bw : float; (* over distinct pairs; infinity when m = 1 *)
}

let make ~name ~speeds ~bw =
  let m = Array.length speeds in
  let inv_speed_mean =
    Array.fold_left (fun acc s -> acc +. (1.0 /. s)) 0.0 speeds
    /. float_of_int m
  in
  let delay_total = ref 0.0 and min_bw = ref infinity in
  for k = 0 to m - 1 do
    for h = 0 to m - 1 do
      if k <> h then begin
        delay_total := !delay_total +. (1.0 /. bw.(k).(h));
        if bw.(k).(h) < !min_bw then min_bw := bw.(k).(h)
      end
    done
  done;
  {
    name;
    speeds;
    bw;
    inv_speed_mean;
    unit_delay_mean =
      (if m = 1 then 0.0 else !delay_total /. float_of_int (m * (m - 1)));
    min_speed = Array.fold_left Float.min infinity speeds;
    min_bw = !min_bw;
  }

let create ?(name = "platform") ~speeds ~bandwidth () =
  let m = Array.length speeds in
  if m = 0 then invalid_arg "Platform.create: no processors";
  Array.iteri
    (fun u s ->
      if s <= 0.0 then
        invalid_arg (Printf.sprintf "Platform.create: speed of P%d not positive" u))
    speeds;
  if Array.length bandwidth <> m then
    invalid_arg "Platform.create: bandwidth matrix has wrong height";
  Array.iteri
    (fun k row ->
      if Array.length row <> m then
        invalid_arg "Platform.create: bandwidth matrix has wrong width";
      Array.iteri
        (fun h d ->
          if k <> h then begin
            if d <= 0.0 then
              invalid_arg
                (Printf.sprintf
                   "Platform.create: bandwidth of link %d-%d not positive" k h);
            if Float.abs (d -. bandwidth.(h).(k)) > 1e-9 *. Float.max 1.0 d then
              invalid_arg
                (Printf.sprintf "Platform.create: bandwidth matrix not symmetric \
                                 at %d-%d" k h)
          end)
        row)
    bandwidth;
  make ~name ~speeds:(Array.copy speeds) ~bw:(Array.map Array.copy bandwidth)

let homogeneous ?(name = "homogeneous") ~m ~speed ~bandwidth () =
  if m <= 0 then invalid_arg "Platform.homogeneous: no processors";
  create ~name ~speeds:(Array.make m speed)
    ~bandwidth:(Array.make_matrix m m bandwidth)
    ()

let name p = p.name
let size p = Array.length p.speeds
let speed p u = p.speeds.(u)

let bandwidth p k h =
  if k = h then invalid_arg "Platform.bandwidth: same processor";
  p.bw.(k).(h)

let unit_delay p k h = if k = h then 0.0 else 1.0 /. p.bw.(k).(h)
let exec_time p u w = w /. p.speeds.(u)
let comm_time p src dst vol = if src = dst then 0.0 else vol /. p.bw.(src).(dst)
let procs p = List.init (size p) Fun.id

let mean_inverse_speed p = p.inv_speed_mean
let mean_unit_delay p = p.unit_delay_mean
let slowest_exec_time p w = w /. p.min_speed
let slowest_comm_time p vol = if size p = 1 then 0.0 else vol /. p.min_bw

(* The caller (platform-cost minimization) probes hundreds of subsets: copy
   the rows straight out of an already-validated platform instead of going
   through [create]'s O(m²) re-validation and double copy. *)
let restrict p kept =
  let m = Array.length kept in
  if m = 0 then invalid_arg "Platform.restrict: no processors";
  let speeds = Array.map (fun u -> p.speeds.(u)) kept in
  let bw =
    Array.init m (fun i ->
        Array.init m (fun j ->
            if i = j then 1.0 else p.bw.(kept.(i)).(kept.(j))))
  in
  make ~name:(p.name ^ "-subset") ~speeds ~bw

let fastest_proc p =
  let best = ref 0 in
  Array.iteri (fun u s -> if s > p.speeds.(!best) then best := u) p.speeds;
  !best
