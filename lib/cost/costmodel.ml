open Elk_util
open Elk_arch

let default_kinds =
  [
    "matmul"; "batch_matmul"; "softmax"; "rmsnorm"; "layernorm"; "rope"; "silu"; "gelu";
    "relu"; "copy"; "scale"; "add"; "mul"; "embedding";
  ]

type t = {
  cm_chip : Arch.chip;
  exec_trees : (string * Linear_tree.t) list;
  transfer_tree : Linear_tree.t;
  hbm_bw : float array;  (** effective HBM bandwidth per log2 read-size bucket. *)
}

let chip t = t.cm_chip
let kinds t = List.map fst t.exec_trees

let features ~kind ~iter =
  let d i = if i < Array.length iter then float_of_int iter.(i) else 1. in
  (* Vector-unit alignment of the inner matmul dimensions is a discrete
     effect a threshold tree cannot discover from raw extents; expose it as
     indicator features, as a profiling pipeline would. *)
  let aligned i =
    let idx = min i (Array.length iter - 1) in
    if iter.(idx) mod 16 = 0 then 1. else 0.
  in
  [|
    d 0; d 1; d 2; d 3;
    Array.fold_left (fun a x -> a *. float_of_int x) 1. iter;
    Device.tile_flops ~kind ~iter;
    Device.tile_bytes ~kind ~iter;
    aligned 1;
    aligned (Array.length iter - 1);
  |]

(* Log-uniform integer in [lo, hi]. *)
let log_uniform rng lo hi =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  let v = exp (l +. Xrng.float rng (h -. l)) in
  max lo (min hi (int_of_float (Float.round v)))

let random_tile rng ~chip ~kind =
  let sram = Arch.usable_sram_per_core chip in
  let fits iter = Device.tile_bytes ~kind ~iter <= sram in
  let rec draw tries =
    let iter =
      match kind with
      | "matmul" ->
          [| log_uniform rng 1 512; log_uniform rng 8 512; log_uniform rng 8 512 |]
      | "batch_matmul" ->
          [|
            log_uniform rng 1 64; log_uniform rng 1 128; log_uniform rng 4 256;
            log_uniform rng 4 256;
          |]
      | _ -> [| log_uniform rng 1 4096; log_uniform rng 8 4096 |]
    in
    if fits iter || tries > 50 then iter else draw (tries + 1)
  in
  draw 0

(* Effective bandwidth of one fresh sequential read of [2^bucket] bytes
   from the chip's HBM. *)
let bucket_bandwidth chip bucket =
  Elk_hbm.Hbm.effective_bandwidth
    (Elk_hbm.Hbm.create (Elk_hbm.Hbm.config_for_bandwidth chip.Arch.hbm_bandwidth))
    ~bytes:(2. ** float_of_int bucket)

(* Buckets kept in [hbm_bw]: reads up to 2^47 bytes; larger ones are
   computed on the spot. *)
let hbm_buckets = 48

(* The generators of one fit: [Xrng.create seed] split once per kind of
   [default_kinds], in order, then once for the transfer tree. *)
let rngs seed =
  let rng = Xrng.create seed in
  let kind_rngs = List.map (fun kind -> (kind, Xrng.split rng)) default_kinds in
  (kind_rngs, Xrng.split rng)

let fit_span trees f = Elk_obs.Span.with_span "costmodel.train" ~attrs:[ ("trees", trees) ] f

(* The execution trees read the chip's usable SRAM (tiles must fit it)
   and the device model's rates; [exec_key] names exactly those. *)
let exec_key ~seed ~samples_per_kind chip =
  Printf.sprintf "%d/%d/%h/%h/%h/%h/%h" seed samples_per_kind chip.Arch.sram_per_core
    chip.Arch.net_buffer_per_core chip.Arch.matmul_flops_per_core
    chip.Arch.vector_flops_per_core chip.Arch.sram_bw_per_core

let fit_exec ~seed ~samples_per_kind chip =
  fit_span "exec" @@ fun () ->
  List.map
    (fun (kind, krng) ->
      let samples =
        List.init samples_per_kind (fun _ ->
            let iter = random_tile krng ~chip ~kind in
            (features ~kind ~iter, Device.measured_exec_time chip ~kind ~iter))
      in
      (kind, Linear_tree.fit samples))
    (fst (rngs seed))

let max_hops chip =
  match chip.Arch.topology with
  | Arch.All_to_all -> 2
  | Arch.Clustered _ -> 3
  | Arch.Mesh2d { rows; cols } -> rows + cols

(* The transfer tree draws at least 200 routes, and reads the route
   lengths the topology allows and the link's latency and bandwidth;
   [transfer_key] names exactly those. *)
let transfer_samples samples_per_kind = max 200 samples_per_kind

let transfer_key ~seed ~samples_per_kind chip =
  Printf.sprintf "%d/%d/%d/%h/%h" seed (transfer_samples samples_per_kind) (max_hops chip)
    chip.Arch.intercore_link.Arch.latency chip.Arch.intercore_link.Arch.bandwidth

let fit_transfer ~seed ~samples_per_kind chip =
  fit_span "transfer" @@ fun () ->
  let trng = snd (rngs seed) in
  let max_hops = max_hops chip in
  Linear_tree.fit
    (List.init (transfer_samples samples_per_kind) (fun _ ->
         let bytes = float_of_int (log_uniform trng 64 (1 lsl 20)) in
         let hops = 1 + Xrng.int trng max_hops in
         let time =
           (* Synthesize the measured time for a route of this length from
              the per-link model plus noise. *)
           let base =
             (float_of_int hops *. chip.Arch.intercore_link.Arch.latency)
             +. (bytes /. chip.Arch.intercore_link.Arch.bandwidth)
           in
           let u = float_of_int (Hashtbl.hash (hops, int_of_float bytes) land 0xFFFF) /. 65535. in
           base *. (0.94 +. (0.12 *. u))
         in
         ([| bytes; float_of_int hops |], time)))

let model chip exec_trees transfer_tree =
  {
    cm_chip = chip;
    exec_trees;
    transfer_tree;
    hbm_bw = Array.init hbm_buckets (bucket_bandwidth chip);
  }

let train ?(seed = 42) ?(samples_per_kind = 600) chip =
  let exec_trees = fit_exec ~seed ~samples_per_kind chip in
  model chip exec_trees (fit_transfer ~seed ~samples_per_kind chip)

(* Fitted trees by key, for the life of the process or until [clear_memo].
   Fits run outside the lock; when two domains fit one key at once, the
   first result stored is the one every caller gets. *)
let memo_lock = Mutex.create ()
let exec_memo : (string, (string * Linear_tree.t) list) Hashtbl.t = Hashtbl.create 16
let transfer_memo : (string, Linear_tree.t) Hashtbl.t = Hashtbl.create 16

let memoized tbl key fit =
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
      let v = fit () in
      Mutex.protect memo_lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some first -> first
          | None ->
              Hashtbl.replace tbl key v;
              v)

let for_chip ?(seed = 42) ?(samples_per_kind = 600) chip =
  let exec_trees =
    memoized exec_memo (exec_key ~seed ~samples_per_kind chip) (fun () ->
        fit_exec ~seed ~samples_per_kind chip)
  in
  let transfer_tree =
    memoized transfer_memo (transfer_key ~seed ~samples_per_kind chip) (fun () ->
        fit_transfer ~seed ~samples_per_kind chip)
  in
  model chip exec_trees transfer_tree

let clear_memo () =
  Mutex.protect memo_lock (fun () ->
      Hashtbl.reset exec_memo;
      Hashtbl.reset transfer_memo)

let trees t = (t.exec_trees, t.transfer_tree)

let exec_predictor t ~kind =
  match List.assoc_opt kind t.exec_trees with
  | Some tree -> fun iter -> Float.max 1e-9 (Linear_tree.predict tree (features ~kind ~iter))
  | None -> fun iter -> Device.exec_time t.cm_chip ~kind ~iter

let predict_exec t ~kind ~iter = exec_predictor t ~kind iter

let predict_transfer t ~hops ~bytes =
  if bytes <= 0. then 0.
  else
    Float.max 1e-9 (Linear_tree.predict t.transfer_tree [| bytes; float_of_int (max 1 hops) |])

let hbm_time t ~bytes =
  if bytes <= 0. then 0.
  else
    let bucket = int_of_float (Float.round (log (Float.max 1. bytes) /. log 2.)) in
    if bucket >= 0 && bucket < hbm_buckets then bytes /. t.hbm_bw.(bucket)
    else bytes /. bucket_bandwidth t.cm_chip bucket

(* Behavioral fingerprint of a trained model: the chip digest plus
   bit-exact ("%h") predictions on a fixed probe set per kind, fixed
   transfer routes, and fixed HBM read sizes.  Two models fingerprint
   equal iff they answer every probe identically — retraining with a
   different seed or sample count changes the fitted trees and therefore
   the digest, which is what invalidates cross-compile cache entries. *)
let exec_probes =
  [
    [| 2; 16 |]; [| 7; 96 |]; [| 48; 640 |]; [| 5; 33; 130 |]; [| 3; 17; 65; 257 |];
  ]

let fingerprint t =
  let b = Buffer.create 512 in
  Buffer.add_string b (Arch.fingerprint t.cm_chip);
  List.iter
    (fun (kind, _) ->
      Buffer.add_char b '|';
      Buffer.add_string b kind;
      List.iter
        (fun iter ->
          Buffer.add_string b (Printf.sprintf ":%h" (predict_exec t ~kind ~iter)))
        exec_probes)
    t.exec_trees;
  List.iter
    (fun (hops, bytes) ->
      Buffer.add_string b (Printf.sprintf "|t:%h" (predict_transfer t ~hops ~bytes)))
    [ (1, 4096.); (2, 65536.); (3, 1048576.) ];
  List.iter
    (fun bytes -> Buffer.add_string b (Printf.sprintf "|h:%h" (hbm_time t ~bytes)))
    [ 4096.; 1048576.; 268435456. ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let exec_accuracy ?(seed = 7) t ~kind ~n =
  let rng = Xrng.create seed in
  List.init n (fun _ ->
      let iter = random_tile rng ~chip:t.cm_chip ~kind in
      ( Device.measured_exec_time t.cm_chip ~kind ~iter,
        predict_exec t ~kind ~iter ))

let transfer_accuracy ?(seed = 7) t ~n =
  let rng = Xrng.create seed in
  let noc = Elk_noc.Noc.create t.cm_chip in
  let ncores = t.cm_chip.Arch.cores in
  List.init n (fun _ ->
      let bytes = float_of_int (log_uniform rng 64 (1 lsl 20)) in
      let src = Xrng.int rng ncores in
      let dst = (src + 1 + Xrng.int rng (ncores - 1)) mod ncores in
      let measured =
        Device.measured_transfer_time noc ~src:(Elk_noc.Noc.Core src)
          ~dst:(Elk_noc.Noc.Core dst) ~bytes
      in
      let hops = Elk_noc.Noc.hops noc ~src:(Elk_noc.Noc.Core src) ~dst:(Elk_noc.Noc.Core dst) in
      (measured, predict_transfer t ~hops ~bytes))

let ideal_exec_time chip op ~cores =
  let open Elk_tensor in
  let flops = Opspec.flops op in
  let peak =
    if Device.is_matmul_kind op.Opspec.kind then chip.Arch.matmul_flops_per_core
    else chip.Arch.vector_flops_per_core
  in
  let n = float_of_int cores in
  let compute = flops /. (peak *. n) in
  let memory = Opspec.footprint_bytes op /. (chip.Arch.sram_bw_per_core *. n) in
  Float.max compute memory
