type family =
  | Layered
  | Fan_in_out
  | Series_parallel
  | Stream_chain

type spec = {
  tasks_range : int * int;
  m : int;
  speed_range : float * float;
  unit_delay_range : float * float;
  exec_range : float * float;
  volume_range : float * float;
  family : family;
  edge_density : float;
}

let default_spec =
  {
    tasks_range = (50, 150);
    m = 20;
    speed_range = (0.5, 1.0);
    unit_delay_range = (0.5, 1.0);
    exec_range = (50.0, 150.0);
    volume_range = (50.0, 150.0);
    family = Layered;
    edge_density = 0.06;
  }

let granularities = List.init 10 (fun i -> 0.2 *. float_of_int (i + 1))

let throughput ~eps = 1.0 /. (10.0 *. float_of_int (eps + 1))

type instance = {
  dag : Dag.t;
  plat : Platform.t;
  granularity : float;
}
