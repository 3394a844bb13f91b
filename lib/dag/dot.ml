let to_string ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" (Dag.name g));
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=ellipse];\n";
  Dag.iter_tasks g (fun t ->
      let extra =
        if List.mem t highlight then ", style=filled, fillcolor=lightgrey"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\nE=%g\"%s];\n" t (Dag.label g t)
           (Dag.exec g t) extra));
  Dag.iter_edges g (fun src dst vol ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%g\"];\n" src dst vol));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
