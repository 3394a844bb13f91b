let run ?opts ~dag ~platform ~throughput () =
  Rltf.schedule ?opts (Types.problem ~dag ~platform ~eps:0 ~throughput)
