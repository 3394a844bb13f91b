type series = {
  label : string;
  points : (float * float) list;
}

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

let finite_points s = List.filter (fun (_, y) -> not (Float.is_nan y)) s.points

(* Keep an evenly-strided subset (always including both endpoints): a
   terminal canvas can't resolve more than a few points per column, so a
   10⁶-point series would spend all its time plotting collisions.  4096
   points is far above anything a canvas resolves. *)
let max_points = 4096

let decimate s =
  let pts = Array.of_list s.points in
  let n = Array.length pts in
  if n <= max_points then s
  else
    let points =
      List.init max_points (fun i -> pts.(i * (n - 1) / (max_points - 1)))
    in
    { s with points }

let render ?(width = 64) ?(height = 20) ?(x_label = "") ?(y_label = "")
    ~title series =
  let series = List.map decimate series in
  let all = List.concat_map finite_points series in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (title ^ "\n");
  if all = [] then begin
    Buffer.add_string buf "(no data)\n";
    Buffer.contents buf
  end
  else begin
    let xs = List.map fst all and ys = List.map snd all in
    let x_min = List.fold_left Float.min infinity xs in
    let x_max = List.fold_left Float.max neg_infinity xs in
    let y_min = List.fold_left Float.min infinity ys in
    let y_max = List.fold_left Float.max neg_infinity ys in
    let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
    let y_span = if y_max > y_min then y_max -. y_min else 1.0 in
    let canvas = Array.init height (fun _ -> Bytes.make width ' ') in
    let plot_point glyph (x, y) =
      let col =
        int_of_float (Float.round ((x -. x_min) /. x_span *. float_of_int (width - 1)))
      in
      let row =
        height - 1
        - int_of_float
            (Float.round ((y -. y_min) /. y_span *. float_of_int (height - 1)))
      in
      if row >= 0 && row < height && col >= 0 && col < width then begin
        let existing = Bytes.get canvas.(row) col in
        (* overlapping series show as '?' so collisions are visible *)
        Bytes.set canvas.(row) col (if existing = ' ' then glyph else '?')
      end
    in
    List.iteri
      (fun i s ->
        let glyph = glyphs.(i mod Array.length glyphs) in
        List.iter (plot_point glyph) (finite_points s))
      series;
    let y_tag row =
      if row = 0 then Printf.sprintf "%10.4g |" y_max
      else if row = height - 1 then Printf.sprintf "%10.4g |" y_min
      else Printf.sprintf "%10s |" ""
    in
    Array.iteri
      (fun row line ->
        Buffer.add_string buf (y_tag row);
        Buffer.add_string buf (Bytes.to_string line);
        Buffer.add_char buf '\n')
      canvas;
    Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
    let x_lo = Printf.sprintf "%.4g" x_min and x_hi = Printf.sprintf "%.4g" x_max in
    let gap = max 1 (width - String.length x_lo - String.length x_hi) in
    Buffer.add_string buf
      (Printf.sprintf "%10s  %s%s%s\n" "" x_lo (String.make gap ' ') x_hi);
    if x_label <> "" || y_label <> "" then
      Buffer.add_string buf
        (Printf.sprintf "%10s  x: %s   y: %s\n" "" x_label y_label);
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf "%12s = %s\n" (String.make 1 glyphs.(i mod Array.length glyphs)) s.label))
      series;
    Buffer.contents buf
  end

let print ?x_label ?y_label ~title series =
  print_string (render ?x_label ?y_label ~title series)
