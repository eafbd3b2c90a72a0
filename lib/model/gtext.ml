open Elk_tensor

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let source_code = function
  | Opspec.Weights -> "w"
  | Opspec.Kv_cache -> "kv"
  | Opspec.Activation -> "a"

let source_of_code = function
  | "w" -> Some Opspec.Weights
  | "kv" -> Some Opspec.Kv_cache
  | "a" -> Some Opspec.Activation
  | _ -> None

let export_node (node : Graph.node) =
  let op = node.Graph.op in
  let iter = op.Opspec.iter in
  let common =
    Printf.sprintf "name=%s role=%s%s deps=%s%s" op.Opspec.name node.Graph.role
      (match node.Graph.layer with Some l -> Printf.sprintf " layer=%d" l | None -> "")
      (match node.Graph.deps with
      | [] -> "-"
      | ds -> String.concat "," (List.map string_of_int ds))
      (if op.Opspec.dtype = Dtype.Fp16 then ""
       else " dt=" ^ Dtype.to_string op.Opspec.dtype)
  in
  match op.Opspec.kind with
  | "matmul" when Array.length iter = 3 ->
      let ws =
        match op.Opspec.inputs with
        | [ _; w ] when w.Opspec.source <> Opspec.Weights ->
            " ws=" ^ source_code w.Opspec.source
        | _ -> ""
      in
      Printf.sprintf "op matmul %s m=%d n=%d k=%d%s" common iter.(0) iter.(1) iter.(2) ws
  | "batch_matmul" when Array.length iter = 4 ->
      let rhs =
        match op.Opspec.inputs with
        | [ _; r ] -> " rhs=" ^ source_code r.Opspec.source
        | _ -> ""
      in
      Printf.sprintf "op bmm %s batch=%d m=%d n=%d k=%d%s" common iter.(0) iter.(1)
        iter.(2) iter.(3) rhs
  | "softmax" when Array.length iter = 2 ->
      Printf.sprintf "op softmax %s rows=%d cols=%d" common iter.(0) iter.(1)
  | ("rmsnorm" | "layernorm") when Array.length iter = 2 ->
      Printf.sprintf "op norm %s rows=%d cols=%d kind=%s" common iter.(0) iter.(1)
        op.Opspec.kind
  | "rope" when Array.length iter = 2 ->
      Printf.sprintf "op rope %s rows=%d cols=%d" common iter.(0) iter.(1)
  | "embedding" when Array.length iter = 2 ->
      Printf.sprintf "op embedding %s rows=%d vocab=0 hidden=%d" common iter.(0) iter.(1)
  | _ ->
      (* Generic pointwise operator. *)
      Printf.sprintf "op eltwise %s kind=%s shape=%s arity=%d fpp=%g" common
        op.Opspec.kind
        (String.concat "x" (Array.to_list iter |> List.map string_of_int))
        (List.length op.Opspec.inputs)
        op.Opspec.flops_per_point

let export g =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "graph %s\n" (Graph.name g));
  Array.iter
    (fun node ->
      Buffer.add_string b (export_node node);
      Buffer.add_char b '\n')
    (Graph.nodes g);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Import                                                             *)
(* ------------------------------------------------------------------ *)

type attrs = (string * string) list

let parse_attrs tokens : (attrs, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
        | Some i ->
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            go ((k, v) :: acc) rest)
  in
  go [] tokens

let find attrs k = List.assoc_opt k attrs

let req attrs k =
  match find attrs k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %S" k)

let int_attr attrs k =
  match req attrs k with
  | Error e -> Error e
  | Ok v -> ( try Ok (int_of_string v) with _ -> Error (Printf.sprintf "bad integer %S for %s" v k))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse_deps attrs ~prev_id =
  match find attrs "deps" with
  | None -> Ok (if prev_id < 0 then [] else [ prev_id ])
  | Some "-" | Some "" -> Ok []
  | Some s -> (
      try
        Ok
          (String.split_on_char ',' s
          |> List.filter (fun x -> x <> "")
          |> List.map int_of_string)
      with _ -> Error (Printf.sprintf "bad deps list %S" s))

let parse_dtype attrs =
  match find attrs "dt" with
  | None -> Ok Dtype.Fp16
  | Some v -> (
      match Dtype.of_string v with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "unknown dtype %S" v))

let parse_shape s =
  try
    Ok (String.split_on_char 'x' s |> List.map int_of_string)
  with _ -> Error (Printf.sprintf "bad shape %S" s)

let parse_op kind attrs =
  let* name = req attrs "name" in
  let* dtype = parse_dtype attrs in
  match kind with
  | "matmul" ->
      let* m = int_attr attrs "m" in
      let* n = int_attr attrs "n" in
      let* k = int_attr attrs "k" in
      let* weight_source =
        match find attrs "ws" with
        | None -> Ok Opspec.Weights
        | Some c -> (
            match source_of_code c with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "bad source %S" c))
      in
      Ok (Opspec.matmul ~dtype ~weight_source ~name ~m ~n ~k ())
  | "bmm" ->
      let* batch = int_attr attrs "batch" in
      let* m = int_attr attrs "m" in
      let* n = int_attr attrs "n" in
      let* k = int_attr attrs "k" in
      let* rhs_source =
        match find attrs "rhs" with
        | None -> Ok Opspec.Kv_cache
        | Some c -> (
            match source_of_code c with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "bad source %S" c))
      in
      Ok (Opspec.batch_matmul ~dtype ~rhs_source ~name ~batch ~m ~n ~k ())
  | "softmax" ->
      let* rows = int_attr attrs "rows" in
      let* cols = int_attr attrs "cols" in
      Ok (Opspec.softmax ~dtype ~name ~rows ~cols ())
  | "norm" ->
      let* rows = int_attr attrs "rows" in
      let* cols = int_attr attrs "cols" in
      let kind = Option.value (find attrs "kind") ~default:"rmsnorm" in
      Ok (Opspec.norm ~dtype ~kind ~name ~rows ~cols ())
  | "rope" ->
      let* rows = int_attr attrs "rows" in
      let* cols = int_attr attrs "cols" in
      Ok (Opspec.rope ~dtype ~name ~rows ~cols ())
  | "embedding" ->
      let* rows = int_attr attrs "rows" in
      let* hidden = int_attr attrs "hidden" in
      let vocab = match int_attr attrs "vocab" with Ok v -> max v 1 | Error _ -> 1 in
      Ok (Opspec.embedding ~dtype ~name ~rows ~vocab ~hidden ())
  | "eltwise" ->
      let* kind = req attrs "kind" in
      let* shape_s = req attrs "shape" in
      let* shape = parse_shape shape_s in
      let arity = match int_attr attrs "arity" with Ok a -> a | Error _ -> 1 in
      let* fpp =
        match find attrs "fpp" with
        | None -> Ok 2.
        | Some v -> (
            match float_of_string_opt v with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "bad float %S for fpp" v))
      in
      Ok (Opspec.elementwise ~dtype ~arity ~flops_per_point:fpp ~name ~kind ~shape ())
  | other -> Error (Printf.sprintf "unknown operator form %S" other)

let import text =
  let lines = String.split_on_char '\n' text in
  let graph_name = ref None in
  let builder = ref None in
  let prev_id = ref (-1) in
  let error = ref None in
  List.iteri
    (fun lineno raw ->
      if !error = None then begin
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else
          let tokens =
            String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
          in
          match tokens with
          | "graph" :: name :: [] ->
              graph_name := Some name;
              builder := Some (Graph.builder ~name)
          | "op" :: kind :: rest -> (
              match !builder with
              | None -> error := Some (lineno + 1, "op before graph declaration")
              | Some b -> (
                  match
                    let* attrs = parse_attrs rest in
                    let* op = parse_op kind attrs in
                    let* deps = parse_deps attrs ~prev_id:!prev_id in
                    let layer =
                      match find attrs "layer" with
                      | Some l -> ( try Some (int_of_string l) with _ -> None)
                      | None -> None
                    in
                    let role = Option.value (find attrs "role") ~default:kind in
                    (try Ok (Graph.add b ?layer ~deps ~role op)
                     with Invalid_argument m -> Error m)
                  with
                  | Ok id -> prev_id := id
                  | Error msg -> error := Some (lineno + 1, msg)))
          | _ -> error := Some (lineno + 1, Printf.sprintf "unrecognized line %S" line)
      end)
    lines;
  match (!error, !builder) with
  | Some (line, msg), _ -> Error (Printf.sprintf "line %d: %s" line msg)
  | None, None -> Error "no graph declaration found"
  | None, Some b -> Ok (Graph.finish b)

let import_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  import s

let roundtrip_equal a b =
  Graph.name a = Graph.name b
  && Graph.length a = Graph.length b
  && Array.for_all2
       (fun (x : Graph.node) (y : Graph.node) ->
         x.Graph.op = y.Graph.op && x.Graph.role = y.Graph.role
         && x.Graph.layer = y.Graph.layer && x.Graph.deps = y.Graph.deps)
       (Graph.nodes a) (Graph.nodes b)
