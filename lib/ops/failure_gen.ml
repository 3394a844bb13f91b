type hazard = { lambda : float; speed_exponent : float }

let uniform ~lambda = { lambda; speed_exponent = 0.0 }

let rate hazard plat p =
  if hazard.lambda < 0.0 then invalid_arg "Failure_gen: negative lambda";
  hazard.lambda *. (Platform.speed plat p ** hazard.speed_exponent)

let by_time =
  fun (p1, t1) (p2, t2) ->
    match compare t1 t2 with 0 -> compare p1 p2 | c -> c

let lifetimes ~rng hazard plat =
  let crashes =
    List.filter_map
      (fun p ->
        let r = rate hazard plat p in
        (* One standard-exponential quantum per processor, drawn in
           processor order from the same stream regardless of the rate:
           scaling λ rescales every lifetime by the same factor, so the
           crash set within any horizon is nested monotonically in λ
           (common random numbers across sweep points). *)
        let q = Rng.exponential rng ~rate:1.0 in
        if r <= 0.0 then None else Some (p, q /. r))
      (Platform.procs plat)
  in
  List.sort by_time crashes

type correlation = { domains : Faults.Domains.t; shock_lambda : float }

let correlated_lifetimes ~rng hazard correlation plat =
  if correlation.shock_lambda < 0.0 then
    invalid_arg "Failure_gen.correlated_lifetimes: negative shock_lambda";
  let n = Platform.size plat in
  if Faults.Domains.procs correlation.domains <> n then
    invalid_arg
      "Failure_gen.correlated_lifetimes: domains partition a different \
       platform size";
  (* Marshall–Olkin common shocks: each processor dies at the minimum of
     its idiosyncratic exponential and its domain's shock exponential.
     The per-processor quanta are drawn first, in processor order — the
     exact stream prefix [lifetimes] consumes — so shock_lambda = 0
     reproduces the independent timeline bit-identically and raising it
     only adds (possibly earlier) crashes: common random numbers along
     the correlation axis. *)
  let own =
    List.map
      (fun p ->
        let r = rate hazard plat p in
        let q = Rng.exponential rng ~rate:1.0 in
        (p, (if r <= 0.0 then infinity else q /. r)))
      (Platform.procs plat)
  in
  let n_domains = Faults.Domains.count correlation.domains in
  let shock = Array.make n_domains infinity in
  if correlation.shock_lambda > 0.0 then
    for d = 0 to n_domains - 1 do
      let q = Rng.exponential rng ~rate:1.0 in
      shock.(d) <- q /. correlation.shock_lambda
    done;
  let crashes =
    List.filter_map
      (fun (p, t_own) ->
        let t =
          Float.min t_own shock.(Faults.Domains.domain_of correlation.domains p)
        in
        if Float.is_finite t then Some (p, t) else None)
      own
  in
  List.sort by_time crashes
