open Elk_arch

let elem_bytes = 2.

let check_iter iter fn =
  if Array.length iter = 0 then invalid_arg ("Device." ^ fn ^ ": empty iteration vector");
  if Array.exists (fun d -> d <= 0) iter then
    invalid_arg ("Device." ^ fn ^ ": nonpositive extent")

let points iter = Array.fold_left (fun a d -> a *. float_of_int d) 1. iter

let is_matmul_kind k = k = "matmul" || k = "batch_matmul"

let tile_bytes ~kind ~iter =
  check_iter iter "tile_bytes";
  let f i = float_of_int iter.(i) in
  match kind with
  | "matmul" when Array.length iter >= 3 ->
      ((f 0 *. f 2) +. (f 2 *. f 1) +. (f 0 *. f 1)) *. elem_bytes
  | "batch_matmul" when Array.length iter >= 4 ->
      f 0 *. ((f 1 *. f 3) +. (f 3 *. f 2) +. (f 1 *. f 2)) *. elem_bytes
  | _ ->
      (* Pointwise / row-wise kinds: one input stream and one output. *)
      2. *. points iter *. elem_bytes

let flops_per_point = function
  | "matmul" | "batch_matmul" -> 2.
  | "softmax" -> 5.
  | "rmsnorm" | "layernorm" -> 4.
  | "rope" -> 6.
  | "gelu" | "silu" -> 4.
  | "copy" | "scale" | "relu" -> 1.
  | "embedding" -> 1.
  | _ -> 2.

let tile_flops ~kind ~iter =
  check_iter iter "tile_flops";
  points iter *. flops_per_point kind

(* Pipeline-fill derating: a tile with few iteration points cannot keep the
   systolic/vector pipelines busy.  The knee constants are chosen so that
   624 KB-scale matmul tiles reach ~95% of peak while KB-scale tiles fall
   well below — matching the qualitative Fig 5 curves. *)
let matmul_fill_knee = 65536.
let vector_fill_knee = 2048.
let launch_overhead = 6e-7

let alignment_factor ~kind ~iter =
  if is_matmul_kind kind then
    let last = iter.(Array.length iter - 1) in
    let n = iter.(min 1 (Array.length iter - 1)) in
    let bad d = d mod 16 <> 0 in
    if bad last && bad n then 0.78 else if bad last || bad n then 0.88 else 1.
  else 1.

let exec_time chip ~kind ~iter =
  check_iter iter "exec_time";
  let fl = tile_flops ~kind ~iter in
  let p = points iter in
  let matmul = is_matmul_kind kind in
  let peak =
    if matmul then chip.Arch.matmul_flops_per_core else chip.Arch.vector_flops_per_core
  in
  let knee = if matmul then matmul_fill_knee else vector_fill_knee in
  let fill = p /. (p +. knee) in
  let rate = peak *. fill *. alignment_factor ~kind ~iter in
  let compute = fl /. rate in
  let memory = tile_bytes ~kind ~iter /. chip.Arch.sram_bw_per_core in
  launch_overhead +. Float.max compute memory

(* Deterministic "measurement" noise: a hash of the shape mapped into
   [1 - noise, 1 + noise].  Stable across runs, uncorrelated across
   shapes. *)
let noise = 0.06

let shape_noise key =
  let h = Hashtbl.hash key in
  let u = float_of_int (h land 0xFFFF) /. 65535. in
  1. -. noise +. (2. *. noise *. u)

let measured_exec_time chip ~kind ~iter =
  exec_time chip ~kind ~iter *. shape_noise (kind, Array.to_list iter)

let measured_transfer_time noc ~src ~dst ~bytes =
  Elk_noc.Noc.transfer_time noc ~src ~dst ~bytes *. shape_noise (src, dst, int_of_float bytes)
