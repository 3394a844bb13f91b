(* Bounded LRU caches of per-mapping compiled artifacts, keyed by a
   content digest of the mapping (DAG weights, platform speeds and
   bandwidths, replica placements and source sets).  A digest key — not
   physical identity — because mappings are mutable: a mapping edited
   after a lookup digests differently on the next lookup and recompiles,
   so the caches can never serve a stale artifact for changed content. *)

let hits_total = Atomic.make 0
let misses_total = Atomic.make 0

let digest m =
  let dag = Mapping.dag m and plat = Mapping.platform m in
  let buf = Buffer.create 4096 in
  (* Raw bit patterns rather than formatted text: the digest sits on the
     cache's hot path (a lookup must beat a compile), and [Printf "%h"]
     formatting dominated the old key's cost by an order of magnitude.
     Float bits distinguish everything [compile] can see — including
     signed zeros — and every variable-length list below is preceded by
     its length, so the encoding is prefix-free. *)
  let addf x = Buffer.add_int64_ne buf (Int64.bits_of_float x) in
  let addi x = Buffer.add_int64_ne buf (Int64.of_int x) in
  addi (Dag.size dag);
  Dag.iter_tasks dag (fun t -> addf (Dag.exec dag t));
  Dag.iter_edges dag (fun src dst vol ->
      addi src;
      addi dst;
      addf vol);
  let m_procs = Platform.size plat in
  addi m_procs;
  for u = 0 to m_procs - 1 do
    addf (Platform.speed plat u)
  done;
  for u = 0 to m_procs - 1 do
    for v = 0 to m_procs - 1 do
      if u <> v then addf (Platform.bandwidth plat u v)
    done
  done;
  addi (Mapping.n_copies m);
  (* Placements and source sets — the same content [Mapping_io.print]
     writes, dumped raw.  [Mapping.iter] enumerates placed replicas in a
     fixed task-major order, so equal mapping content yields equal
     bytes. *)
  Mapping.iter m (fun r ->
      addi r.Replica.id.Replica.task;
      addi r.Replica.id.Replica.copy;
      addi r.Replica.proc;
      addi (List.length r.Replica.sources);
      List.iter
        (fun ((pred : Dag.task), (srcs : Replica.id list)) ->
          addi pred;
          addi (List.length srcs);
          List.iter
            (fun (s : Replica.id) ->
              addi s.Replica.task;
              addi s.Replica.copy)
            srcs)
        r.Replica.sources);
  Digest.string (Buffer.contents buf)

type 'v entry = { value : 'v; mutable stamp : int }

type 'v t = {
  capacity : int;
  build : Mapping.t -> 'v;
  table : (string, 'v entry) Hashtbl.t;
  mutable clock : int;  (* LRU stamp source, monotone per lookup *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  lock : Mutex.t;
}

let create ~capacity build =
  if capacity < 1 then invalid_arg "Program_cache.create: capacity < 1";
  {
    capacity;
    build;
    table = Hashtbl.create (2 * capacity);
    clock = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    lock = Mutex.create ();
  }

let evict_lru c =
  (* O(capacity) scan — capacities are small and eviction is the rare
     path (a miss past capacity). *)
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, s) when s <= e.stamp -> ()
      | _ -> victim := Some (key, e.stamp))
    c.table;
  match !victim with None -> () | Some (key, _) -> Hashtbl.remove c.table key

let find c m =
  let key = digest m in
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
  c.clock <- c.clock + 1;
  match Hashtbl.find_opt c.table key with
  | Some e ->
      e.stamp <- c.clock;
      Atomic.incr c.hits;
      Atomic.incr hits_total;
      Obs.incr "sim.cache.hits";
      e.value
  | None ->
      Atomic.incr c.misses;
      Atomic.incr misses_total;
      Obs.incr "sim.cache.misses";
      (* Built under the lock: concurrent misses on one mapping compile
         once, and the compile (ms) dwarfs the hold time anyway. *)
      let value = c.build m in
      if Hashtbl.length c.table >= c.capacity then evict_lru c;
      Hashtbl.replace c.table key { value; stamp = c.clock };
      value

let mem c m =
  let key = digest m in
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
  Hashtbl.mem c.table key

let length c =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
  Hashtbl.length c.table

let hits c = Atomic.get c.hits
let misses c = Atomic.get c.misses

let clear c =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
  Hashtbl.reset c.table

(* The shared compiled-program instance.  64 mappings comfortably covers
   a recovery chain's restoration history or a figure trial's working
   set.  (The stage-latency plan cache lives in [Stage_latency] itself,
   next to the model it caches.) *)
let default_capacity = 64
let programs : Engine.program t = create ~capacity:default_capacity Engine.compile
let program m = find programs m
