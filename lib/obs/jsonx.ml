let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

let number f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* Snapshots round to 6 significant digits, so that float noise below
   that does not move a committed file. *)
let number6 f = number (float_of_string (Printf.sprintf "%.6g" f))

let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let field k v = quote k ^ ":" ^ v

(* ---- Parsing -------------------------------------------------------- *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.src in
  while
    cur.pos < n
    && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let lit cur word v =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then (
    cur.pos <- cur.pos + n;
    v)
  else fail cur (Printf.sprintf "expected '%s'" word)

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then
                  fail cur "truncated \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail cur "bad \\u escape"
                in
                cur.pos <- cur.pos + 4;
                (* Preserve the byte content: emit UTF-8 for the BMP code
                   point (surrogate pairs land as two replacement runs —
                   fine for the identifiers these documents carry). *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then (
                  Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f))))
                else (
                  Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f))))
            | _ -> fail cur "unknown escape");
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.src in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < n && is_num_char cur.src.[cur.pos] do
    advance cur
  done;
  if cur.pos = start then fail cur "expected number";
  let s = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail cur (Printf.sprintf "bad number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then (
        advance cur;
        Obj [])
      else
        let rec members acc =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members ((k, v) :: acc)
          | Some '}' ->
              advance cur;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail cur "expected ',' or '}'"
        in
        members []
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then (
        advance cur;
        Arr [])
      else
        let rec elements acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              elements (v :: acc)
          | Some ']' ->
              advance cur;
              Arr (List.rev (v :: acc))
          | _ -> fail cur "expected ',' or ']'"
        in
        elements []
  | Some 't' -> lit cur "true" (Bool true)
  | Some 'f' -> lit cur "false" (Bool false)
  | Some 'n' -> lit cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse s =
  let cur = { src = s; pos = 0 } in
  try
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then
      (* A second top-level value ("{} {}") must not silently parse as
         the first: the whole input is one document or it is invalid. *)
      Error (Printf.sprintf "trailing garbage after document at offset %d" cur.pos)
    else Ok v
  with Parse_error m -> Error m

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Num f -> Some f
  | Null -> Some Float.nan
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr vs -> vs | _ -> []
