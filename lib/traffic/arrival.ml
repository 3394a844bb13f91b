type t =
  | Deterministic of { period : float }
  | Poisson of { rate : float }
  | Mmpp of {
      burst_rate : float;
      idle_rate : float;
      mean_burst : float;
      mean_idle : float;
    }
  | Trace of float list

let positive name v =
  if not (Float.is_finite v) || v <= 0.0 then
    invalid_arg ("Arrival.times: " ^ name ^ " must be positive and finite")

(* All randomized gaps are drawn as unit-rate exponential quanta and
   scaled by the phase rate afterwards: sweeping a rate re-times the
   same quanta instead of resampling them (common random numbers), so a
   load sweep moves every arrival monotonically. *)
let quantum rng = Rng.exponential rng ~rate:1.0

let times ?rng ~n t =
  if n < 0 then invalid_arg "Arrival.times: n < 0";
  let rng () =
    match rng with
    | Some r -> r
    | None -> invalid_arg "Arrival.times: this process needs an rng"
  in
  match t with
  | Deterministic { period } ->
      if not (Float.is_finite period) || period < 0.0 then
        invalid_arg "Arrival.times: period must be non-negative and finite";
      (* Exactly the closed-system engine's injection grid. *)
      Array.init n (fun k -> float_of_int k *. period)
  | Poisson { rate } ->
      positive "rate" rate;
      let rng = rng () in
      let t = ref 0.0 in
      Array.init n (fun _ ->
          t := !t +. (quantum rng /. rate);
          !t)
  | Mmpp { burst_rate; idle_rate; mean_burst; mean_idle } ->
      positive "burst_rate" burst_rate;
      positive "idle_rate" idle_rate;
      positive "mean_burst" mean_burst;
      positive "mean_idle" mean_idle;
      let rng = rng () in
      (* The process starts in the burst phase.  Both the arrivals
         within a phase and the phase lengths are exponential, so on a
         phase switch the next gap is simply redrawn at the new rate
         (memorylessness makes the discarded residual exact). *)
      let in_burst = ref true in
      let t = ref 0.0 in
      let phase_end = ref (quantum rng *. mean_burst) in
      let rec next () =
        let rate = if !in_burst then burst_rate else idle_rate in
        let candidate = !t +. (quantum rng /. rate) in
        if candidate <= !phase_end then t := candidate
        else begin
          t := !phase_end;
          in_burst := not !in_burst;
          phase_end :=
            !t +. (quantum rng *. if !in_burst then mean_burst else mean_idle);
          next ()
        end
      in
      Array.init n (fun _ ->
          next ();
          !t)
  | Trace offsets ->
      let arr = Array.make n 0.0 in
      let rec fill k = function
        | _ when k = n -> ()
        | [] -> invalid_arg "Arrival.times: trace shorter than n"
        | o :: rest ->
            if not (Float.is_finite o) || o < 0.0 then
              invalid_arg
                "Arrival.times: trace offsets must be non-negative and finite";
            if k > 0 && o < arr.(k - 1) then
              invalid_arg "Arrival.times: trace offsets must be nondecreasing";
            arr.(k) <- o;
            fill (k + 1) rest
      in
      fill 0 offsets;
      arr

let to_string = function
  | Deterministic { period } -> Printf.sprintf "deterministic(period=%g)" period
  | Poisson { rate } -> Printf.sprintf "poisson(rate=%g)" rate
  | Mmpp { burst_rate; idle_rate; mean_burst; mean_idle } ->
      Printf.sprintf "mmpp(burst=%g@%g, idle=%g@%g)" burst_rate mean_burst
        idle_rate mean_idle
  | Trace offsets -> Printf.sprintf "trace(%d offsets)" (List.length offsets)
