let escape field =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write ~path ~header rows =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let put row =
        output_string oc (String.concat "," (List.map escape row));
        output_char oc '\n'
      in
      put header;
      List.iter put rows)
