type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

let fail line fmt = Printf.ksprintf (fun message -> Error { line; message }) fmt

(* Split file contents into (line number, fields) with comments and blank
   lines removed. *)
let tokenize contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (n, line) ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun f -> f <> "")
         with
         | [] -> None
         | fields -> Some (n, fields))

let parse_float line what s =
  match float_of_string_opt s with
  | Some v when v > 0.0 -> Ok v
  | Some _ -> fail line "%s must be positive, got %s" what s
  | None -> fail line "cannot parse %s %S" what s

(* ------------------------------------------------------------------ *)
(* Workflows                                                           *)
(* ------------------------------------------------------------------ *)

type w_decl =
  | W_name of string
  | W_task of string * float
  | W_edge of string * string * float

let parse_workflow_decls contents =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | (line, fields) :: rest -> (
        match fields with
        | [ "workflow"; name ] -> loop ((line, W_name name) :: acc) rest
        | [ "task"; name; weight ] -> (
            match parse_float line "execution weight" weight with
            | Ok w -> loop ((line, W_task (name, w)) :: acc) rest
            | Error e -> Error e)
        | [ "edge"; src; dst; volume ] -> (
            match parse_float line "data volume" volume with
            | Ok v -> loop ((line, W_edge (src, dst, v)) :: acc) rest
            | Error e -> Error e)
        | keyword :: _ -> fail line "unexpected %S in a workflow file" keyword
        | [] -> loop acc rest)
  in
  loop [] (tokenize contents)

let parse_workflow contents =
  match parse_workflow_decls contents with
  | Error e -> Error e
  | Ok decls -> (
      let name = ref "workflow" in
      let tasks = ref [] and edges = ref [] in
      let rec collect = function
        | [] -> Ok ()
        | (_, W_name n) :: rest ->
            name := n;
            collect rest
        | (line, W_task (n, w)) :: rest ->
            if List.mem_assoc n !tasks then fail line "duplicate task %S" n
            else begin
              tasks := (n, w) :: !tasks;
              collect rest
            end
        | (line, W_edge (src, dst, v)) :: rest ->
            edges := (line, src, dst, v) :: !edges;
            collect rest
      in
      match collect decls with
      | Error e -> Error e
      | Ok () -> (
          let tasks = List.rev !tasks in
          if tasks = [] then fail 0 "workflow has no tasks"
          else begin
            let index = Hashtbl.create 16 in
            List.iteri (fun i (n, _) -> Hashtbl.replace index n i) tasks;
            let b = Dag.Builder.create ~name:!name (List.length tasks) in
            List.iteri
              (fun i (n, w) ->
                Dag.Builder.set_exec b i w;
                Dag.Builder.set_label b i n)
              tasks;
            let rec add_edges = function
              | [] -> Ok ()
              | (line, src, dst, v) :: rest -> (
                  match (Hashtbl.find_opt index src, Hashtbl.find_opt index dst) with
                  | None, _ -> fail line "edge source %S is not a task" src
                  | _, None -> fail line "edge destination %S is not a task" dst
                  | Some s, Some d -> (
                      match Dag.Builder.add_edge b ~volume:v s d with
                      | () -> add_edges rest
                      | exception Invalid_argument msg -> fail line "%s" msg))
            in
            match add_edges (List.rev !edges) with
            | Error e -> Error e
            | Ok () -> (
                match Dag.Builder.build b with
                | dag -> Ok dag
                | exception Invalid_argument _ ->
                    fail 0 "the edges form a cycle")
          end))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_workflow path =
  match read_file path with
  | contents -> parse_workflow contents
  | exception Sys_error msg -> fail 0 "%s" msg

let print_workflow dag =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "workflow %s\n" (Dag.name dag));
  Dag.iter_tasks dag (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "task %s %.12g\n" (Dag.label dag t) (Dag.exec dag t)));
  Dag.iter_edges dag (fun src dst vol ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %.12g\n" (Dag.label dag src) (Dag.label dag dst)
           vol));
  Buffer.contents buf

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let save_workflow path dag = write_file path (print_workflow dag)

(* ------------------------------------------------------------------ *)
(* Platforms                                                           *)
(* ------------------------------------------------------------------ *)

let parse_platform contents =
  let name = ref "platform" in
  let procs = ref [] (* (name, speed), reverse order *) in
  let links = ref [] (* (line, a, b, bandwidth) *) in
  let default_bw = ref None in
  let rec collect = function
    | [] -> Ok ()
    | (line, fields) :: rest -> (
        match fields with
        | [ "platform"; n ] ->
            name := n;
            collect rest
        | [ "proc"; n; speed ] -> (
            if List.mem_assoc n !procs then fail line "duplicate processor %S" n
            else
              match parse_float line "speed" speed with
              | Ok s ->
                  procs := (n, s) :: !procs;
                  collect rest
              | Error e -> Error e)
        | [ "link"; a; b; bw ] -> (
            match parse_float line "bandwidth" bw with
            | Ok v ->
                links := (line, a, b, v) :: !links;
                collect rest
            | Error e -> Error e)
        | [ "default-bandwidth"; bw ] -> (
            match parse_float line "bandwidth" bw with
            | Ok v ->
                default_bw := Some v;
                collect rest
            | Error e -> Error e)
        | keyword :: _ -> fail line "unexpected %S in a platform file" keyword
        | [] -> collect rest)
  in
  match collect (tokenize contents) with
  | Error e -> Error e
  | Ok () -> (
      let procs = List.rev !procs in
      if procs = [] then fail 0 "platform has no processors"
      else begin
        let m = List.length procs in
        let index = Hashtbl.create 8 in
        List.iteri (fun i (n, _) -> Hashtbl.replace index n i) procs;
        let speeds = Array.of_list (List.map snd procs) in
        let default = Option.value ~default:1.0 !default_bw in
        let bw = Array.make_matrix m m default in
        let rec apply = function
          | [] -> Ok ()
          | (line, a, b, v) :: rest -> (
              match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
              | None, _ -> fail line "link endpoint %S is not a processor" a
              | _, None -> fail line "link endpoint %S is not a processor" b
              | Some i, Some j ->
                  if i = j then fail line "link from %S to itself" a
                  else begin
                    bw.(i).(j) <- v;
                    bw.(j).(i) <- v;
                    apply rest
                  end)
        in
        match apply (List.rev !links) with
        | Error e -> Error e
        | Ok () -> (
            match Platform.create ~name:!name ~speeds ~bandwidth:bw () with
            | p -> Ok p
            | exception Invalid_argument msg -> fail 0 "%s" msg)
      end)

let load_platform path =
  match read_file path with
  | contents -> parse_platform contents
  | exception Sys_error msg -> fail 0 "%s" msg

let print_platform p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "platform %s\n" (Platform.name p));
  List.iter
    (fun u ->
      Buffer.add_string buf (Printf.sprintf "proc P%d %.12g\n" u (Platform.speed p u)))
    (Platform.procs p);
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v then
            Buffer.add_string buf
              (Printf.sprintf "link P%d P%d %.12g\n" u v (Platform.bandwidth p u v)))
        (Platform.procs p))
    (Platform.procs p);
  Buffer.contents buf


(* ------------------------------------------------------------------ *)
(* Workload specs                                                      *)
(* ------------------------------------------------------------------ *)

let instance_of_spec ?(granularity = 1.0) ~seed str =
  match Spec.of_string str with
  | Error message -> Error { line = 0; message }
  | Ok spec ->
      let rng = Rng.create ~seed in
      Ok (Spec.generate spec ~rng ~granularity ())
