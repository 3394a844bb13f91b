(** Fixed graphs: the paper's two examples and standard task-graph
    families from the scheduling literature. *)

val fig1_graph : Dag.t
(** The motivating example of §1 (Fig. 1(a)): four tasks
    [t1 → t2, t1 → t3, t2 → t4, t3 → t4], every execution time 15, every
    edge volume 2. *)

val fig1_platform : Platform.t
(** Four processors with speeds (1.5, 1, 1.5, 1) and unit-bandwidth
    links. *)

val fig2_graph : Dag.t
(** The worked example of §4.3 (Fig. 2(a)), reconstructed from the
    scheduling traces in the text: [t1 → {t2, t3}], [t2 → {t4, t5, t6}],
    [{t4, t5} → t6], [{t3, t6} → t7]; execution times
    (15, 6, 20, 5, 5, 6, 15), every edge volume 2. *)

val fig2_platform : m:int -> Platform.t
(** The homogeneous platform of §4.3: [m] unit-speed processors with
    bandwidth such that transferring one edge's volume takes 2 time units
    (volume 2, unit bandwidth). *)

val chain : n:int -> exec:float -> volume:float -> Dag.t
(** A linear pipeline of [n] tasks. *)

val fork_join : width:int -> exec:float -> volume:float -> Dag.t
(** One source fanning out to [width] parallel tasks joined by one sink. *)

val diamond : levels:int -> exec:float -> volume:float -> Dag.t
(** A diamond lattice: levels of sizes 1, 2, …, up to [levels], back down
    to 1, each task feeding its neighbours in the next level. *)

val fft : p:int -> exec:float -> volume:float -> Dag.t
(** The butterfly task graph of a [2^p]-point FFT: [p + 1] columns of
    [2^p] tasks, task [i] of column [c] feeding tasks [i] and
    [i lxor 2^c] of column [c + 1]. *)

val gaussian_elimination : n:int -> exec:float -> volume:float -> Dag.t
(** The classic Gaussian-elimination task graph on an [n × n] matrix:
    pivot column tasks feeding the update tasks of the trailing
    submatrix. *)

val stencil : rows:int -> cols:int -> exec:float -> volume:float -> Dag.t
(** A [rows × cols] wavefront: task [(i, j)] feeds [(i+1, j)] and
    [(i, j+1)]. *)

val stream_pipeline :
  stages:int -> branches:int -> exec:float -> volume:float -> Dag.t
(** A StreamIt-style pipeline: a chain of [stages] split/join segments,
    each fanning out to [branches] parallel filters — the archetypal
    "video and audio encoding" workflow shape of the paper's
    introduction. *)
