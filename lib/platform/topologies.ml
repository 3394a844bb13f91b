let cluster_of ~per_cluster p = p / per_cluster

let clustered ?(name = "clustered") ~clusters ~per_cluster ~speed
    ~intra_bandwidth ~inter_bandwidth () =
  if clusters < 1 || per_cluster < 1 then
    invalid_arg "Topologies.clustered: empty shape";
  let m = clusters * per_cluster in
  let bw =
    Array.init m (fun i ->
        Array.init m (fun j ->
            if i = j then 0.0
            else if cluster_of ~per_cluster i = cluster_of ~per_cluster j then
              intra_bandwidth
            else inter_bandwidth))
  in
  Platform.create ~name ~speeds:(Array.make m speed) ~bandwidth:bw ()

let star ?(name = "star") ~m ~speed ~hub_bandwidth ~leaf_bandwidth () =
  if m < 1 then invalid_arg "Topologies.star: no processors";
  let bw =
    Array.init m (fun i ->
        Array.init m (fun j ->
            if i = j then 0.0
            else if i = 0 || j = 0 then hub_bandwidth
            else leaf_bandwidth))
  in
  Platform.create ~name ~speeds:(Array.make m speed) ~bandwidth:bw ()
