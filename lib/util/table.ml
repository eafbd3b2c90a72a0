type t = { title : string; columns : string list; mutable rows : string list list }

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns (table %S)"
         (List.length cells) (List.length t.columns) t.title);
  t.rows <- t.rows @ [ cells ]

let add_rowf t fmt =
  Format.kasprintf (fun s -> add_row t (String.split_on_char '|' s |> List.map String.trim)) fmt

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let emit row =
    List.iteri
      (fun i c ->
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (widths.(i) - String.length c + 2) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.columns;
  Buffer.add_string buf (String.make (Array.fold_left ( + ) 0 widths + (2 * ncols)) '-');
  Buffer.add_char buf '\n';
  List.iter emit t.rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let glyphs = [| " "; "_"; "."; ":"; "-"; "="; "+"; "*"; "#" |]

let glyph ~hi v =
  if hi <= 0. then glyphs.(0)
  else glyphs.(max 0 (min 8 (int_of_float (Float.round (v /. hi *. 8.)))))

let sparkline values =
  let hi = List.fold_left Float.max 0. values in
  String.concat "" (List.map (glyph ~hi) values)
