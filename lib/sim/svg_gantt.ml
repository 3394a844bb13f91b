let palette =
  [|
    "#4e79a7"; "#f28e2b"; "#e15759"; "#76b7b2"; "#59a14f"; "#edc948";
    "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac";
  |]

(* Drawing width and processor row height in pixels; the chart shows the
   first data item. *)
let width = 960
let row_height = 34
let item = 0

let render mapping (result : Engine.result) =
  let plat = Mapping.platform mapping in
  let dag = Mapping.dag mapping in
  let n_procs = Platform.size plat in
  let margin_left = 46 and margin_top = 24 in
  let horizon = ref 0.0 in
  Mapping.iter mapping (fun r ->
      match result.Engine.finish_time item r.Replica.id with
      | Some f -> horizon := Float.max !horizon f
      | None -> ());
  List.iter
    (fun (m : Engine.message) ->
      if m.Engine.msg_src.Engine.item = item then
        horizon := Float.max !horizon m.Engine.msg_finish)
    result.Engine.messages;
  let horizon = if !horizon <= 0.0 then 1.0 else !horizon in
  let scale = float_of_int (width - margin_left - 10) /. horizon in
  let x t = float_of_int margin_left +. (t *. scale) in
  let buf = Buffer.create 8192 in
  let height = margin_top + (n_procs * row_height) + 30 in
  Buffer.add_string buf
    (Printf.sprintf
       {|<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="10">|}
       width height);
  Buffer.add_string buf "\n";
  (* processor lanes *)
  for p = 0 to n_procs - 1 do
    let y = margin_top + (p * row_height) in
    Buffer.add_string buf
      (Printf.sprintf
         {|<text x="4" y="%d" fill="#333">P%d</text><line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>|}
         (y + (row_height / 2)) p margin_left (y + row_height) (width - 10)
         (y + row_height));
    Buffer.add_string buf "\n"
  done;
  (* executions *)
  Mapping.iter mapping (fun (r : Replica.t) ->
      match
        ( result.Engine.start_time item r.Replica.id,
          result.Engine.finish_time item r.Replica.id )
      with
      | Some s, Some f ->
          let y = margin_top + (r.Replica.proc * row_height) + 3 in
          let color =
            palette.(r.Replica.id.Replica.task mod Array.length palette)
          in
          Buffer.add_string buf
            (Printf.sprintf
               {|<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="#333" stroke-width="0.5"><title>%s [%g, %g]</title></rect>|}
               (x s) y
               (Float.max 1.0 ((f -. s) *. scale))
               (row_height - 14) color
               (Replica.id_to_string r.Replica.id)
               s f);
          Buffer.add_string buf
            (Printf.sprintf
               {|<text x="%.1f" y="%d" fill="#fff">%s</text>|}
               (x s +. 2.0)
               (y + row_height - 20)
               (Dag.label dag r.Replica.id.Replica.task));
          Buffer.add_string buf "\n"
      | _ -> ());
  (* transfers, drawn in the sender's lower sub-row *)
  List.iter
    (fun (m : Engine.message) ->
      if m.Engine.msg_src.Engine.item = item then begin
        let src = m.Engine.msg_src.Engine.rep in
        let sp = (Mapping.replica_exn mapping src.Replica.task src.Replica.copy).Replica.proc in
        let y = margin_top + (sp * row_height) + row_height - 9 in
        Buffer.add_string buf
          (Printf.sprintf
             {|<rect x="%.1f" y="%d" width="%.1f" height="5" fill="#999"><title>%s -> %s</title></rect>|}
             (x m.Engine.msg_start) y
             (Float.max 1.0 ((m.Engine.msg_finish -. m.Engine.msg_start) *. scale))
             (Replica.id_to_string src)
             (Replica.id_to_string m.Engine.msg_dst.Engine.rep));
        Buffer.add_string buf "\n"
      end)
    result.Engine.messages;
  (* time axis *)
  let axis_y = margin_top + (n_procs * row_height) + 14 in
  Buffer.add_string buf
    (Printf.sprintf
       {|<text x="%d" y="%d" fill="#333">0</text><text x="%d" y="%d" fill="#333" text-anchor="end">%.2f</text>|}
       margin_left axis_y (width - 10) axis_y horizon);
  Buffer.add_string buf "\n</svg>\n";
  Buffer.contents buf

let save path mapping result =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render mapping result))
