(* Bounded LRU caches of per-mapping compiled artifacts, keyed by a
   content digest of the mapping (DAG weights, platform speeds and
   bandwidths, replica placements and source sets).  A digest key — not
   physical identity — because mappings are mutable: a mapping edited
   after a lookup digests differently on the next lookup and recompiles,
   so the caches can never serve a stale artifact for changed content. *)

let hits_total = Atomic.make 0
let misses_total = Atomic.make 0

(* The key's bytes go into one scratch per domain, grown on demand and
   hashed in place, so a lookup allocates no buffer.  Nothing the digest
   calls can re-enter it, and no domain runs a second thread. *)
type scratch = { mutable buf : Bytes.t; mutable pos : int }

let scratch = Domain.DLS.new_key (fun () -> { buf = Bytes.create 4096; pos = 0 })

(* Inlined, so a float read from an unboxed array is written unboxed. *)
let[@inline] add64 st x =
  if st.pos + 8 > Bytes.length st.buf then
    st.buf <- Bytes.extend st.buf 0 (Bytes.length st.buf);
  Bytes.set_int64_ne st.buf st.pos x;
  st.pos <- st.pos + 8

let[@inline] addi st x = add64 st (Int64.of_int x)
let[@inline] addf st x = add64 st (Int64.bits_of_float x)

(* Recursions and loops rather than iterators, which would allocate a
   closure over [st] per list. *)
let rec add_succs st src = function
  | [] -> ()
  | (dst, vol) :: rest ->
      addi st src;
      addi st dst;
      addf st vol;
      add_succs st src rest

let rec add_ids st = function
  | [] -> ()
  | (s : Replica.id) :: rest ->
      addi st s.Replica.task;
      addi st s.Replica.copy;
      add_ids st rest

let rec add_sources st = function
  | [] -> ()
  | ((pred : Dag.task), srcs) :: rest ->
      addi st pred;
      addi st (List.length srcs);
      add_ids st srcs;
      add_sources st rest

let digest m =
  let dag = Mapping.dag m and plat = Mapping.platform m in
  let st = Domain.DLS.get scratch in
  st.pos <- 0;
  (* Raw bit patterns rather than formatted text: the digest sits on the
     cache's hot path, where a lookup must beat a compile.  On paper
     mappings of about 230 replicas the key takes about 70 µs, mostly
     MD5, and [Engine.compile] about 190 µs (2-core shared host);
     [Printf "%h"] formatting cost an order of magnitude more.  Float bits
     distinguish everything [compile] can see — including signed zeros —
     and every variable-length list below is preceded by its length, so
     the encoding is prefix-free. *)
  let n = Dag.size dag and m_procs = Platform.size plat in
  addi st n;
  for t = 0 to n - 1 do
    addf st (Dag.exec dag t)
  done;
  for src = 0 to n - 1 do
    add_succs st src (Dag.succs dag src)
  done;
  addi st m_procs;
  let speeds = Platform.speeds plat and bw = Platform.bandwidths plat in
  for u = 0 to m_procs - 1 do
    addf st speeds.(u)
  done;
  for u = 0 to m_procs - 1 do
    for v = 0 to m_procs - 1 do
      if u <> v then addf st bw.(u).(v)
    done
  done;
  addi st (Mapping.n_copies m);
  (* Placements and source sets — the same content [Mapping_io.print]
     writes, dumped raw in [Mapping.iter]'s task-major order, so equal
     mapping content yields equal bytes. *)
  for task = 0 to n - 1 do
    for copy = 0 to Mapping.n_copies m - 1 do
      match Mapping.replica m task copy with
      | None -> ()
      | Some r ->
          addi st task;
          addi st copy;
          addi st r.Replica.proc;
          addi st (List.length r.Replica.sources);
          add_sources st r.Replica.sources
    done
  done;
  Digest.subbytes st.buf 0 st.pos

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
  Mutex.protect c.lock @@ fun () ->
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
  Mutex.protect c.lock (fun () -> Hashtbl.mem c.table key)

let length c = Mutex.protect c.lock (fun () -> Hashtbl.length c.table)

let hits c = Atomic.get c.hits
let misses c = Atomic.get c.misses

let clear c = Mutex.protect c.lock (fun () -> Hashtbl.reset c.table)

(* The shared compiled-program instance.  64 mappings comfortably covers
   a recovery chain's restoration history or a figure trial's working
   set.  (The stage-latency plan cache lives in [Stage_latency] itself,
   next to the model it caches.) *)
let default_capacity = 64
let programs : Engine.program t = create ~capacity:default_capacity Engine.compile
let program m = find programs m
