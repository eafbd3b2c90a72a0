open Elk_util
open Elk_tensor
open Elk_arch

type plan = {
  factors : int array;
  tile : int array;
  cores_used : int;
  exec_space : float;
  exec_time : float;
  compute_time : float;
  exchange_bytes_per_core : float;
  hbm_needed_per_core : float;
  max_share_group : int;
}

type preload_opt = {
  frac : float;
  preload_space : float;
  dist_bytes_per_core : float;
  dist_time : float;
  hbm_device_bytes : float;
  noc_inject_bytes : float;
  preload_len : float;
  hbm_floor : float;
}

let preload_overhead o = o.dist_time +. Float.max 0. (o.preload_len -. o.hbm_floor)

(* Structural memo keys.  Partitioning reads an operator's kind,
   iteration extents, each tensor's indexing dims and source, its
   per-point FLOPs and its dtype, and never its name or its tensors'
   names.  The memo tables hash and compare exactly those fields, so a
   lookup hashes a few words instead of building a string and digesting
   it.  [flops_per_point] compares by its bits: [0.] and [-0.] key
   apart.  Preload options also key on the plan's factor vector;
   frontier keys carry an empty one. *)
module Key = struct
  type t = { op : Opspec.t; factors : int array }

  let int_array_equal (a : int array) b =
    let n = Array.length a in
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let same_tensor (a : Opspec.tensor) (b : Opspec.tensor) =
    a.Opspec.source = b.Opspec.source && List.equal Int.equal a.Opspec.dims b.Opspec.dims

  let equal k l =
    let a = k.op and b = l.op in
    int_array_equal k.factors l.factors
    && String.equal a.Opspec.kind b.Opspec.kind
    && int_array_equal a.Opspec.iter b.Opspec.iter
    && same_tensor a.Opspec.output b.Opspec.output
    && List.equal same_tensor a.Opspec.inputs b.Opspec.inputs
    && Int64.bits_of_float a.Opspec.flops_per_point
       = Int64.bits_of_float b.Opspec.flops_per_point
    && a.Opspec.dtype = b.Opspec.dtype

  let mix h v = (h * 31) + v

  let mix_tensor h (t : Opspec.tensor) =
    List.fold_left mix (mix h (Hashtbl.hash t.Opspec.source)) t.Opspec.dims

  (* [Hashtbl.hash] of the accumulated words spreads them over the low
     bits the table indexes by. *)
  let hash { op; factors } =
    let bits = Int64.bits_of_float op.Opspec.flops_per_point in
    let h = Array.fold_left mix (Hashtbl.hash op.Opspec.kind) op.Opspec.iter in
    let h = List.fold_left mix_tensor (mix_tensor h op.Opspec.output) op.Opspec.inputs in
    let h = mix h (Int64.to_int bits lxor Int64.to_int (Int64.shift_right_logical bits 32)) in
    let h = mix h (Hashtbl.hash op.Opspec.dtype) in
    Hashtbl.hash (Array.fold_left mix h factors)
end

module Memo = Hashtbl.Make (Key)

type ctx = {
  chip : Arch.chip;
  cost : Elk_cost.Costmodel.t;
  fp : string;  (* digest of (chip, cost model, max_plans_per_op). *)
  lock : Mutex.t;  (* guards the three tables; see [memo_find]. *)
  memo : plan Pareto.point list Memo.t;  (* each operator's exec frontier. *)
  popt_memo : preload_opt list Memo.t;
  ops : Opspec.t Memo.t;  (* the stored copy of each operator keyed so far. *)
}

(* The fastest plans kept per operator. *)
let max_plans_per_op = 512

(* Every context owns its memo tables: they start empty here and live as
   long as the context does. *)
let make_ctx cost =
  let chip = Elk_cost.Costmodel.chip cost in
  {
    chip;
    cost;
    fp =
      Digest.to_hex
        (Digest.string
           (Arch.fingerprint chip ^ "|"
           ^ Elk_cost.Costmodel.fingerprint cost
           ^ "|" ^ string_of_int max_plans_per_op));
    lock = Mutex.create ();
    memo = Memo.create 64;
    popt_memo = Memo.create 256;
    ops = Memo.create 64;
  }

let fingerprint ctx = ctx.fp

let memo_sizes ctx =
  Mutex.lock ctx.lock;
  let sizes = (Memo.length ctx.memo, Memo.length ctx.popt_memo) in
  Mutex.unlock ctx.lock;
  sizes

(* A stored key owns its arrays — the caller's may be mutated after the
   lookup — and every key of one operator shares one stored copy of it.
   Called under [ctx.lock]. *)
let persist ctx { Key.op; factors } =
  let op_key = { Key.op; factors = [||] } in
  let op =
    match Memo.find_opt ctx.ops op_key with
    | Some stored -> stored
    | None ->
        let stored = { op with Opspec.iter = Array.copy op.Opspec.iter } in
        Memo.add ctx.ops { Key.op = stored; factors = [||] } stored;
        stored
  in
  { Key.op; factors = Array.copy factors }

(* A context's memo tables are shared across the scheduler domains of
   the parallel order search, so every access is serialized under
   [ctx.lock].  The compute itself runs {e outside} the lock: it is a
   pure function of the key, and holding the mutex across an enumeration
   would serialize the domains.  If two domains miss the same key
   concurrently both compute it; the first insert wins and the duplicate
   — structurally identical — is dropped. *)
let memo_find ctx tbl key compute =
  Mutex.lock ctx.lock;
  match Memo.find_opt tbl key with
  | Some v ->
      Mutex.unlock ctx.lock;
      v
  | None ->
      Mutex.unlock ctx.lock;
      let v = compute () in
      Mutex.lock ctx.lock;
      let v =
        match Memo.find_opt tbl key with
        | Some winner -> winner
        | None ->
            Memo.add tbl (persist ctx key) v;
            v
      in
      Mutex.unlock ctx.lock;
      v

let ctx_chip ctx = ctx.chip
let ctx_cost ctx = ctx.cost

let ceil_div a b = (a + b - 1) / b

(* Candidate part counts for one dimension: its divisors plus powers of
   two, bounded by the extent and the core count. *)
let dim_candidates ~extent ~cores =
  let bound = min extent cores in
  let acc = ref [] in
  let add v = if v >= 1 && v <= bound && not (List.mem v !acc) then acc := v :: !acc in
  add 1;
  let d = ref 1 in
  while !d * !d <= extent do
    if extent mod !d = 0 then begin
      add !d;
      add (extent / !d)
    end;
    incr d
  done;
  let p = ref 1 in
  while !p <= bound do
    add !p;
    p := !p * 2
  done;
  List.sort compare !acc

(* Enumerate factor vectors whose product stays within the core budget,
   optionally restricted to [max_split_dims] partitioned dimensions. *)
let factor_vectors ~iter ~cores ~max_split_dims ~cap =
  let ndims = Array.length iter in
  let results = ref [] and count = ref 0 in
  let current = Array.make ndims 1 in
  let candidates = Array.map (fun extent -> dim_candidates ~extent ~cores) iter in
  let rec go dim prod split_dims =
    if !count >= cap then ()
    else if dim = ndims then begin
      results := Array.copy current :: !results;
      incr count
    end
    else
      List.iter
        (fun f ->
          if prod * f <= cores && (f = 1 || split_dims < max_split_dims) then begin
            current.(dim) <- f;
            go (dim + 1) (prod * f) (if f = 1 then split_dims else split_dims + 1);
            current.(dim) <- 1
          end)
        candidates.(dim)
  in
  go 0 1 0;
  !results

let elem_size op = float_of_int (Dtype.size_bytes op.Opspec.dtype)

let tensor_needed op tile (t : Opspec.tensor) =
  List.fold_left (fun a d -> a *. float_of_int tile.(d)) 1. t.Opspec.dims *. elem_size op

let share_group factors (t : Opspec.tensor) =
  let g = ref 1 in
  Array.iteri (fun d f -> if not (List.mem d t.Opspec.dims) then g := !g * f) factors;
  !g

let comm_hops chip =
  match chip.Arch.topology with
  | Arch.All_to_all -> 2
  | Arch.Clustered _ -> 3
  | Arch.Mesh2d _ -> 1

(* Rate at which HBM controllers can inject preload traffic into the
   interconnect: the controllers' aggregate bandwidth, or on a mesh the
   boundary entry strips (two rows of [cols] links). *)
let inject_rate chip =
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  match chip.Arch.topology with
  | Arch.All_to_all -> chip.Arch.hbm_bandwidth
  | Arch.Clustered { l2_bandwidth; _ } -> Float.min chip.Arch.hbm_bandwidth l2_bandwidth
  | Arch.Mesh2d { cols; _ } ->
      (* Deliveries fan out of ~2 cols entry cores, each spreading over
         roughly two useful mesh directions. *)
      Float.min chip.Arch.hbm_bandwidth (4. *. float_of_int cols *. link_bw)

let plan_of_factors ctx (op : Opspec.t) factors =
  let tile = Array.mapi (fun i f -> ceil_div op.Opspec.iter.(i) f) factors in
  let tiles = Array.fold_left ( * ) 1 factors in
  let cores = ctx.chip.Arch.cores in
  (* Operators whose tiles outnumber the cores execute in [rounds]
     sequential rounds, one tile per core per round — how real compilers
     handle operators too large for one spatial pass.  Per-round working
     sets bound the execution space; HBM-resident inputs for all rounds
     must be preloaded, so they scale with [rounds]. *)
  let rounds = ceil_div tiles cores in
  let cores_used = min tiles cores in
  let froll = float_of_int rounds in
  let out_slice = tensor_needed op tile op.Opspec.output in
  let reduce_group = share_group factors op.Opspec.output in
  let input_needs =
    List.map (fun t -> (t, tensor_needed op tile t, share_group factors t)) op.Opspec.inputs
  in
  let act_slice =
    List.fold_left
      (fun a ((t : Opspec.tensor), need, _) ->
        match t.Opspec.source with Opspec.Activation -> a +. need | _ -> a)
      0. input_needs
  in
  let hbm_needed_round, max_g =
    List.fold_left
      (fun (acc, mg) ((t : Opspec.tensor), need, g) ->
        match t.Opspec.source with
        | Opspec.Weights | Opspec.Kv_cache -> (acc +. need, max mg g)
        | Opspec.Activation -> (acc, mg))
      (0., 1) input_needs
  in
  (* Execution space per core and round: the activation working set, the
     preloaded HBM slices of every round, and the output of the current
     round (plus a partial-result buffer when a reduction dimension is
     split; completed round outputs stream onward). *)
  let exec_space =
    act_slice
    +. (hbm_needed_round *. froll)
    +. (out_slice *. if reduce_group > 1 then 2. else 1.)
  in
  let act_fetch =
    List.fold_left
      (fun a ((t : Opspec.tensor), need, g) ->
        match t.Opspec.source with
        | Opspec.Activation when g > 1 -> a +. (need *. float_of_int (g - 1) /. float_of_int g)
        | _ -> a)
      0. input_needs
  in
  let red_bytes =
    if reduce_group > 1 then
      out_slice *. float_of_int (reduce_group - 1) /. float_of_int reduce_group
    else 0.
  in
  let exchange = (act_fetch +. red_bytes) *. froll in
  let hops = comm_hops ctx.chip in
  let t_comm =
    if exchange > 0. then Elk_cost.Costmodel.predict_transfer ctx.cost ~hops ~bytes:exchange
    else 0.
  in
  let t_compute =
    froll
    *. Elk_cost.Costmodel.predict_exec ctx.cost ~kind:op.Opspec.kind ~iter:tile
  in
  {
    factors;
    tile;
    cores_used;
    exec_space;
    exec_time = t_compute +. t_comm;
    compute_time = t_compute;
    exchange_bytes_per_core = exchange;
    hbm_needed_per_core = hbm_needed_round *. froll;
    max_share_group = max_g;
  }

let compute_plans ctx (op : Opspec.t) =
  let cores = ctx.chip.Arch.cores in
  let max_split_dims =
    match ctx.chip.Arch.topology with
    | Arch.All_to_all | Arch.Clustered _ -> Array.length op.Opspec.iter
    | Arch.Mesh2d _ -> 2
  in
  let vectors =
    (* Allow up to 16 sequential rounds so operators bigger than one
       spatial pass still get plans. *)
    factor_vectors ~iter:op.Opspec.iter ~cores:(cores * 16) ~max_split_dims
      ~cap:(max_plans_per_op * 64)
  in
  let points =
    Array.fold_left (fun a e -> if a > cores then a else a * e) 1 op.Opspec.iter
  in
  let min_cores = min (max 1 (cores / 4)) points in
  let sram = Arch.usable_sram_per_core ctx.chip in
  let plans =
    List.filter_map
      (fun factors ->
        let cores_used = Array.fold_left ( * ) 1 factors in
        if cores_used < min_cores then None
        else
          let p = plan_of_factors ctx op factors in
          if p.exec_space > sram then None else Some p)
      vectors
  in
  (* Deduplicate by tile shape (distinct factorizations can yield the same
     ceil-divided tile) and keep the fastest representative. *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let key = Array.to_list p.tile in
      match Hashtbl.find_opt table key with
      | Some q when q.exec_time <= p.exec_time -> ()
      | _ -> Hashtbl.replace table key p)
    plans;
  let deduped = Hashtbl.fold (fun _ p acc -> p :: acc) table [] in
  let sorted = List.sort (fun a b -> compare a.exec_time b.exec_time) deduped in
  let truncated = List.filteri (fun i _ -> i < max_plans_per_op) sorted in
  truncated

let zero_option =
  {
    frac = 1.;
    preload_space = 0.;
    dist_bytes_per_core = 0.;
    dist_time = 0.;
    hbm_device_bytes = 0.;
    noc_inject_bytes = 0.;
    preload_len = 0.;
    hbm_floor = 0.;
  }

(* What every plan's preload options share: the operator's HBM-resident
   inputs, the bytes they occupy on the HBM devices and the HBM time of
   those bytes.  [None] for an operator with no HBM-resident input. *)
type hbm_basis = { hbm_inputs : Opspec.tensor list; device_bytes : float; hbm_floor : float }

let hbm_basis ctx (op : Opspec.t) =
  let hbm_inputs =
    List.filter
      (fun (t : Opspec.tensor) ->
        match t.Opspec.source with Opspec.Weights | Opspec.Kv_cache -> true | _ -> false)
      op.Opspec.inputs
  in
  if hbm_inputs = [] then None
  else
    let device_bytes =
      List.fold_left (fun a (t : Opspec.tensor) -> a +. Opspec.tensor_bytes op t) 0. hbm_inputs
    in
    Some
      {
        hbm_inputs;
        device_bytes;
        hbm_floor = Elk_cost.Costmodel.hbm_time ctx.cost ~bytes:device_bytes;
      }

(* A plan's preload-state candidates: its broadcast fractions [1, 1/2,
   ..., 1/g], ascending, and the one function that turns a fraction into
   an option. *)
let preload_candidates ctx (op : Opspec.t) b plan =
  let rounds = ceil_div (Array.fold_left ( * ) 1 plan.factors) ctx.chip.Arch.cores in
  (* All rounds' HBM-resident slices must be delivered to the core. *)
  let needs =
    Array.of_list
      (List.map (fun t -> tensor_needed op plan.tile t *. float_of_int rounds) b.hbm_inputs)
  in
  let groups = Array.of_list (List.map (share_group plan.factors) b.hbm_inputs) in
  let max_g = Array.fold_left max 1 groups in
  (* Halving from 1 while above 1/g, then 1/g itself: already ascending
     and distinct. *)
  let rec fracs acc f =
    if f *. float_of_int max_g <= 1.000001 then (1. /. float_of_int max_g) :: acc
    else fracs (f :: acc) (f /. 2.)
  in
  let hops = comm_hops ctx.chip in
  let link_bw = ctx.chip.Arch.intercore_link.Arch.bandwidth in
  let option_at frac =
    let preload_space = ref 0. and dist_bytes = ref 0. and inject = ref 0. in
    for k = 0 to Array.length needs - 1 do
      let need = needs.(k) in
      let f = Float.max frac (1. /. float_of_int groups.(k)) in
      preload_space := !preload_space +. (need *. f);
      dist_bytes := !dist_bytes +. (need *. (1. -. f));
      inject := !inject +. (need *. f *. float_of_int plan.cores_used)
    done;
    let dist_time =
      if !dist_bytes > 0. then
        Elk_cost.Costmodel.predict_transfer ctx.cost ~hops ~bytes:!dist_bytes
      else 0.
    in
    let preload_len =
      Float.max b.hbm_floor
        (Float.max (!inject /. inject_rate ctx.chip) (!preload_space /. link_bw))
    in
    {
      frac;
      preload_space = !preload_space;
      dist_bytes_per_core = !dist_bytes;
      dist_time;
      hbm_device_bytes = b.device_bytes;
      noc_inject_bytes = !inject;
      preload_len;
      hbm_floor = b.hbm_floor;
    }
  in
  (fracs [] 1., option_at)

let compute_preload_options ctx op plan =
  match hbm_basis ctx op with
  | None -> [ zero_option ]
  | Some b -> (
      let fracs, option_at = preload_candidates ctx op b plan in
      let opts = List.map option_at fracs in
      let frontier =
        Pareto.frontier
          (List.map
             (fun o -> { Pareto.x = o.preload_space; y = preload_overhead o; payload = o })
             opts)
      in
      match frontier with
      | [] -> [ List.hd opts ]
      | pts -> List.map (fun p -> p.Pareto.payload) pts)

(* The least [preload_overhead] of [compute_preload_options ctx op plan],
   in one pass over the candidates, with no option list.  [Pareto.frontier]
   keeps each point whose y is below every earlier one, starting from
   [infinity], so the frontier's least y is the least candidate y below
   [infinity]; its space grows with the fraction, so on a tie (0. and -0.)
   the first candidate is the frontier's point.  With no candidate below
   [infinity] the frontier is empty and the options are the first
   candidate alone. *)
let best_preload_overhead ctx op basis plan =
  match basis with
  | None -> preload_overhead zero_option
  | Some b ->
      let fracs, option_at = preload_candidates ctx op b plan in
      let best =
        List.fold_left
          (fun best frac ->
            let y = preload_overhead (option_at frac) in
            if y < best then y else best)
          infinity fracs
      in
      if best < infinity then best
      else Float.min infinity (preload_overhead (option_at (List.hd fracs)))

let enumerate = compute_plans

(* Only the frontier is kept: the plan list it is folded from is garbage
   once the entry is made.  The frontier step reads only each plan's best
   overhead: the option lists are left to [preload_options]' callers. *)
let exec_frontier ctx op =
  memo_find ctx ctx.memo { Key.op; factors = [||] } (fun () ->
      let basis = hbm_basis ctx op in
      Pareto.frontier
        (List.map
           (fun p ->
             let overhead = best_preload_overhead ctx op basis p in
             let overhead = if overhead = infinity then 0. else overhead in
             { Pareto.x = p.exec_space; y = p.exec_time +. overhead; payload = p })
           (compute_plans ctx op)))

let preload_options ctx op plan =
  memo_find ctx ctx.popt_memo { Key.op; factors = plan.factors } (fun () ->
      compute_preload_options ctx op plan)

let fastest_plan ctx op =
  match Pareto.min_y (exec_frontier ctx op) with
  | Some p -> p.Pareto.payload
  | None ->
      invalid_arg
        (Printf.sprintf "Partition.fastest_plan: no plan fits on chip for %s" op.Opspec.name)

let fastest_plan_within ctx op ~space =
  match Pareto.best_y_under_x (exec_frontier ctx op) space with
  | Some p -> Some p.Pareto.payload
  | None -> None

let plan_with_factors ctx (op : Opspec.t) factors =
  let rank = Array.length op.Opspec.iter in
  if Array.length factors <> rank then
    Error (Printf.sprintf "%s: factor rank %d, expected %d" op.Opspec.name
             (Array.length factors) rank)
  else if Array.exists (fun f -> f < 1) factors then
    Error (op.Opspec.name ^ ": nonpositive factor")
  else if
    Array.exists2 (fun f e -> f > e) factors op.Opspec.iter
  then Error (op.Opspec.name ^ ": factor exceeds extent")
  else Ok (plan_of_factors ctx op factors)

let preload_option_near ctx op plan ~frac =
  match preload_options ctx op plan with
  | [] -> invalid_arg "Partition.preload_option_near: no options"
  | first :: rest ->
      List.fold_left
        (fun best o ->
          if Float.abs (o.frac -. frac) < Float.abs (best.frac -. frac) then o else best)
        first rest

let pp_plan fmt p =
  Format.fprintf fmt "<%s> tile=%s cores=%d space=%a time=%a"
    (String.concat "," (Array.to_list p.factors |> List.map string_of_int))
    (String.concat "x" (Array.to_list p.tile |> List.map string_of_int))
    p.cores_used Units.pp_bytes p.exec_space Units.pp_time p.exec_time
