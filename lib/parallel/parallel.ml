let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map_seeded ~jobs f xs =
  if jobs <= 1 then List.map f xs
  else
    Domain_pool.with_pool ~num_domains:jobs (fun pool ->
        Domain_pool.map pool f xs)
