type source = Weights | Kv_cache | Activation

type tensor = { t_name : string; dims : int list; source : source }

type t = {
  name : string;
  kind : string;
  iter : int array;
  inputs : tensor list;
  output : tensor;
  flops_per_point : float;
  dtype : Dtype.t;
}

let validate t =
  let ndims = Array.length t.iter in
  let check_tensor tensor =
    let rec sorted_unique = function
      | a :: (b :: _ as rest) -> a < b && sorted_unique rest
      | [ _ ] | [] -> true
    in
    if not (sorted_unique tensor.dims) then
      Error (Printf.sprintf "%s/%s: dims not strictly ascending" t.name tensor.t_name)
    else if List.exists (fun d -> d < 0 || d >= ndims) tensor.dims then
      Error (Printf.sprintf "%s/%s: dim out of range" t.name tensor.t_name)
    else Ok ()
  in
  let rec first_error = function
    | [] -> Ok ()
    | x :: rest -> ( match check_tensor x with Ok () -> first_error rest | e -> e)
  in
  if ndims = 0 then Error (t.name ^ ": empty iteration space")
  else if Array.exists (fun e -> e < 1) t.iter then
    Error (t.name ^ ": nonpositive extent")
  else if not (Float.is_finite t.flops_per_point) then
    Error (t.name ^ ": non-finite flops_per_point")
  else if t.flops_per_point < 0. then Error (t.name ^ ": negative flops_per_point")
  else first_error (t.output :: t.inputs)

let points t = Array.fold_left (fun a e -> a *. float_of_int e) 1. t.iter
let flops t = points t *. t.flops_per_point

let tensor_elems t tensor =
  List.fold_left (fun a d -> a *. float_of_int t.iter.(d)) 1. tensor.dims

let tensor_bytes t tensor =
  tensor_elems t tensor *. float_of_int (Dtype.size_bytes t.dtype)

let sum_inputs t pred =
  List.fold_left
    (fun a tensor -> if pred tensor.source then a +. tensor_bytes t tensor else a)
    0. t.inputs

let hbm_bytes t = sum_inputs t (function Weights | Kv_cache -> true | Activation -> false)
let activation_in_bytes t = sum_inputs t (function Activation -> true | _ -> false)
let output_bytes t = tensor_bytes t t.output
let footprint_bytes t = sum_inputs t (fun _ -> true) +. output_bytes t

let arithmetic_intensity t =
  let h = hbm_bytes t in
  if h = 0. then infinity else flops t /. h

let is_hbm_heavy t ~threshold = hbm_bytes t >= threshold

let matmul ?(dtype = Dtype.Fp16) ?(weight_source = Weights) ~name ~m ~n ~k () =
  {
    name;
    kind = "matmul";
    iter = [| m; n; k |];
    inputs =
      [
        { t_name = "act"; dims = [ 0; 2 ]; source = Activation };
        { t_name = "weight"; dims = [ 1; 2 ]; source = weight_source };
      ];
    output = { t_name = "out"; dims = [ 0; 1 ]; source = Activation };
    flops_per_point = 2.;
    dtype;
  }

let batch_matmul ?(dtype = Dtype.Fp16) ?(rhs_source = Kv_cache) ~name ~batch ~m ~n ~k () =
  {
    name;
    kind = "batch_matmul";
    iter = [| batch; m; n; k |];
    inputs =
      [
        { t_name = "lhs"; dims = [ 0; 1; 3 ]; source = Activation };
        { t_name = "rhs"; dims = [ 0; 2; 3 ]; source = rhs_source };
      ];
    output = { t_name = "out"; dims = [ 0; 1; 2 ]; source = Activation };
    flops_per_point = 2.;
    dtype;
  }

let softmax ?(dtype = Dtype.Fp16) ~name ~rows ~cols () =
  {
    name;
    kind = "softmax";
    iter = [| rows; cols |];
    inputs = [ { t_name = "in"; dims = [ 0; 1 ]; source = Activation } ];
    output = { t_name = "out"; dims = [ 0; 1 ]; source = Activation };
    flops_per_point = 5.;
    dtype;
  }

let norm ?(dtype = Dtype.Fp16) ?(kind = "rmsnorm") ~name ~rows ~cols () =
  {
    name;
    kind;
    iter = [| rows; cols |];
    inputs =
      [
        { t_name = "in"; dims = [ 0; 1 ]; source = Activation };
        { t_name = "scale"; dims = [ 1 ]; source = Weights };
      ];
    output = { t_name = "out"; dims = [ 0; 1 ]; source = Activation };
    flops_per_point = 4.;
    dtype;
  }

let rope ?(dtype = Dtype.Fp16) ~name ~rows ~cols () =
  {
    name;
    kind = "rope";
    iter = [| rows; cols |];
    inputs =
      [
        { t_name = "in"; dims = [ 0; 1 ]; source = Activation };
        { t_name = "freqs"; dims = [ 1 ]; source = Weights };
      ];
    output = { t_name = "out"; dims = [ 0; 1 ]; source = Activation };
    flops_per_point = 6.;
    dtype;
  }

let elementwise ?(dtype = Dtype.Fp16) ?(arity = 1) ?(flops_per_point = 2.) ~name ~kind
    ~shape () =
  let iter = Array.of_list shape in
  let all_dims = List.init (Array.length iter) (fun i -> i) in
  let input i = { t_name = Printf.sprintf "in%d" i; dims = all_dims; source = Activation } in
  {
    name;
    kind;
    iter;
    inputs = List.init (max 1 arity) input;
    output = { t_name = "out"; dims = all_dims; source = Activation };
    flops_per_point;
    dtype;
  }

let embedding ?(dtype = Dtype.Fp16) ~name ~rows ~vocab ~hidden () =
  (* Only the gathered rows transit HBM; [vocab] merely documents the table
     the slice is drawn from. *)
  ignore vocab;
  {
    name;
    kind = "embedding";
    iter = [| rows; hidden |];
    inputs =
      [
        { t_name = "table_slice"; dims = [ 0; 1 ]; source = Weights };
      ];
    output = { t_name = "out"; dims = [ 0; 1 ]; source = Activation };
    flops_per_point = 1.;
    dtype;
  }

let conv_patchify ?(dtype = Dtype.Fp16) ~name ~tokens ~in_dim ~out_dim () =
  {
    (matmul ~dtype ~name ~m:tokens ~n:out_dim ~k:in_dim ())
    with kind = "matmul";
  }

let pp fmt t =
  Format.fprintf fmt "%s[%s](%s) flops=%.3g hbm=%a" t.name t.kind
    (String.concat "x" (Array.to_list t.iter |> List.map string_of_int))
    (flops t) Elk_util.Units.pp_bytes (hbm_bytes t)
