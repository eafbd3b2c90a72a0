(* Cross-cutting property tests over the allocator, scheduler, HBM model,
   graph serialization and the simulator's records, on randomized
   inputs. *)

open Elk_model
module P = Elk_partition.Partition
module Sim = Elk_sim.Sim
module Cp = Elk_sim.Critpath
module Mt = Elk_sim.Memtrace

let ctx () = Lazy.force Tu.default_ctx
let graph () = Lazy.force Tu.tiny_llama_chip_graph
let capacity () = Elk_arch.Arch.usable_sram_per_core (P.ctx_chip (ctx ()))

let qcheck_alloc_fits_any_capacity =
  Tu.qtest ~count:40 "alloc: result always fits the given capacity"
    QCheck2.Gen.(pair (int_bound 1000) (float_range 0.2 1.))
    (fun (nseed, cap_frac) ->
      let g = graph () in
      let c = ctx () in
      let node = Graph.get g (nseed mod Graph.length g) in
      let window =
        let w = Graph.get g ((nseed + 7) mod Graph.length g) in
        Elk.Alloc.window (Elk.Alloc.exec_frontier c node)
          [| Elk.Alloc.frontier c w (P.fastest_plan c w.Graph.op) |]
      in
      match Elk.Alloc.allocate ~capacity:(cap_frac *. capacity ()) ~len:1 window with
      | None -> true (* refusing is allowed; overflowing is not *)
      | Some r -> r.Elk.Alloc.total_space <= (cap_frac *. capacity ()) +. 1e-6)

let qcheck_alloc_monotone_in_capacity =
  Tu.qtest ~count:30 "alloc: more capacity never slows the chosen plan"
    QCheck2.Gen.(int_bound 1000)
    (fun nseed ->
      let g = graph () in
      let c = ctx () in
      let node = Graph.get g (nseed mod Graph.length g) in
      let window = Elk.Alloc.window (Elk.Alloc.exec_frontier c node) [||] in
      let run cap = Elk.Alloc.allocate ~capacity:cap ~len:0 window in
      match (run (0.4 *. capacity ()), run (capacity ())) with
      | Some small, Some big -> big.Elk.Alloc.exec_time <= small.Elk.Alloc.exec_time +. 1e-12
      | None, _ -> true
      | Some _, None -> false)

(* The allocator's one-pass packing verdict against the definition:
   bump-pack the sizes into address intervals and scan every pair with
   [Alloc.overlaps].  Sizes mix zeros, negatives, NaN and infinities, so
   both the by-construction path and the pairwise fallback are hit. *)
let qcheck_packing_verdict =
  let size =
    QCheck2.Gen.(
      oneof
        [
          pure 0.; pure Float.nan; pure Float.infinity; pure Float.neg_infinity;
          map float_of_int (int_range (-8) 8); float_range (-1e6) 1e6;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"alloc: packing verdict equals the pairwise scan"
       ~print:QCheck2.Print.(list float)
       QCheck2.Gen.(list_size (int_range 0 10) size)
       (fun sizes ->
         let _, rev =
           List.fold_left
             (fun (base, acc) a_size ->
               ( base +. a_size,
                 { Elk.Alloc.a_op = List.length acc; a_kind = Elk.Residency.Preload;
                   a_base = base; a_size }
                 :: acc ))
             (0., []) sizes
         in
         let rec pairwise = function
           | [] -> true
           | a :: tl -> (not (List.exists (Elk.Alloc.overlaps a) tl)) && pairwise tl
         in
         Elk.Alloc.packing_disjoint sizes = pairwise (List.rev rev)))

let bits = Int64.bits_of_float

(* The frontier step folds each plan's least preload overhead in one pass;
   the reference builds every plan's option list and takes its least
   overhead, as the step did before.  Fresh private memos on both
   topologies; extents include 1 and primes, and the three operator
   shapes cover weights, a KV cache and no HBM input at all. *)
let qcheck_exec_frontier_reference =
  let extent = QCheck2.Gen.(oneof [ oneofl [ 1; 2; 3; 5; 7; 13; 31; 61; 127 ]; int_range 1 256 ]) in
  let op =
    QCheck2.Gen.(
      oneof
        [
          map3 (fun m n k -> Elk_tensor.Opspec.matmul ~name:"mm" ~m ~n ~k ()) extent extent extent;
          map3
            (fun batch (m, n) k -> Elk_tensor.Opspec.batch_matmul ~name:"bmm" ~batch ~m ~n ~k ())
            extent (pair extent extent) extent;
          map2
            (fun a b -> Elk_tensor.Opspec.elementwise ~name:"ew" ~kind:"silu" ~shape:[ a; b ] ())
            extent extent;
        ])
  in
  Tu.qtest ~count:40 "partition: exec frontier equals the option-list reference"
    QCheck2.Gen.(pair bool op)
    (fun (mesh, op) ->
      let cost = P.ctx_cost (Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx)) in
      let c = P.make_ctx cost in
      let frontier = P.exec_frontier c op in
      let reference =
        Elk_util.Pareto.frontier
          (List.map
             (fun p ->
               let o =
                 List.fold_left
                   (fun a o -> Float.min a (P.preload_overhead o))
                   infinity (P.preload_options c op p)
               in
               let o = if o = infinity then 0. else o in
               { Elk_util.Pareto.x = p.P.exec_space; y = p.P.exec_time +. o; payload = p })
             (P.enumerate c op))
      in
      let key (pt : P.plan Elk_util.Pareto.point) =
        (bits pt.Elk_util.Pareto.x, bits pt.Elk_util.Pareto.y, pt.Elk_util.Pareto.payload.P.factors)
      in
      List.map key frontier = List.map key reference)

(* The enumeration as it was before operators were resolved into a
   pricer: a plan priced whole for every factor vector, the SRAM filter
   after pricing, tiles deduplicated in a generic [Hashtbl] keyed by the
   tile list, and preload options built as records per fraction.  The
   property below holds [Partition] to it, floats by bits. *)
module Ref_partition = struct
  open Elk_tensor
  open Elk_arch

  let ceil_div a b = (a + b - 1) / b
  let max_plans_per_op = 512

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

  let plan_of_factors ctx (op : Opspec.t) factors =
    let chip = P.ctx_chip ctx and cost = P.ctx_cost ctx in
    let tile = Array.mapi (fun i f -> ceil_div op.Opspec.iter.(i) f) factors in
    let tiles = Array.fold_left ( * ) 1 factors in
    let cores = chip.Arch.cores in
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
    let hops = comm_hops chip in
    let t_comm =
      if exchange > 0. then Elk_cost.Costmodel.predict_transfer cost ~hops ~bytes:exchange
      else 0.
    in
    let t_compute =
      froll *. Elk_cost.Costmodel.predict_exec cost ~kind:op.Opspec.kind ~iter:tile
    in
    {
      P.factors;
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
    let chip = P.ctx_chip ctx in
    let cores = chip.Arch.cores in
    let max_split_dims =
      match chip.Arch.topology with
      | Arch.All_to_all | Arch.Clustered _ -> Array.length op.Opspec.iter
      | Arch.Mesh2d _ -> 2
    in
    let vectors =
      factor_vectors ~iter:op.Opspec.iter ~cores:(cores * 16) ~max_split_dims
        ~cap:(max_plans_per_op * 64)
    in
    let points =
      Array.fold_left (fun a e -> if a > cores then a else a * e) 1 op.Opspec.iter
    in
    let min_cores = min (max 1 (cores / 4)) points in
    let sram = Arch.usable_sram_per_core chip in
    let plans =
      List.filter_map
        (fun factors ->
          let cores_used = Array.fold_left ( * ) 1 factors in
          if cores_used < min_cores then None
          else
            let p = plan_of_factors ctx op factors in
            if p.P.exec_space > sram then None else Some p)
        vectors
    in
    let table = Hashtbl.create 64 in
    List.iter
      (fun (p : P.plan) ->
        let key = Array.to_list p.P.tile in
        match Hashtbl.find_opt table key with
        | Some (q : P.plan) when q.P.exec_time <= p.P.exec_time -> ()
        | _ -> Hashtbl.replace table key p)
      plans;
    let deduped = Hashtbl.fold (fun _ p acc -> p :: acc) table [] in
    let sorted = List.sort (fun a b -> compare a.P.exec_time b.P.exec_time) deduped in
    List.filteri (fun i _ -> i < max_plans_per_op) sorted

  let preload_options ctx (op : Opspec.t) (plan : P.plan) =
    let chip = P.ctx_chip ctx and cost = P.ctx_cost ctx in
    let hbm_inputs =
      List.filter
        (fun (t : Opspec.tensor) ->
          match t.Opspec.source with Opspec.Weights | Opspec.Kv_cache -> true | _ -> false)
        op.Opspec.inputs
    in
    if hbm_inputs = [] then
      [
        { P.frac = 1.; preload_space = 0.; dist_bytes_per_core = 0.; dist_time = 0.;
          hbm_device_bytes = 0.; noc_inject_bytes = 0.; preload_len = 0.; hbm_floor = 0. };
      ]
    else begin
      let device_bytes =
        List.fold_left (fun a (t : Opspec.tensor) -> a +. Opspec.tensor_bytes op t) 0. hbm_inputs
      in
      let hbm_floor = Elk_cost.Costmodel.hbm_time cost ~bytes:device_bytes in
      let rounds = ceil_div (Array.fold_left ( * ) 1 plan.P.factors) chip.Arch.cores in
      let needs =
        Array.of_list
          (List.map (fun t -> tensor_needed op plan.P.tile t *. float_of_int rounds) hbm_inputs)
      in
      let groups = Array.of_list (List.map (share_group plan.P.factors) hbm_inputs) in
      let max_g = Array.fold_left max 1 groups in
      let rec fracs acc f =
        if f *. float_of_int max_g <= 1.000001 then (1. /. float_of_int max_g) :: acc
        else fracs (f :: acc) (f /. 2.)
      in
      let hops = comm_hops chip in
      let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
      let option_at frac =
        let preload_space = ref 0. and dist_bytes = ref 0. and inject = ref 0. in
        for k = 0 to Array.length needs - 1 do
          let need = needs.(k) in
          let f = Float.max frac (1. /. float_of_int groups.(k)) in
          preload_space := !preload_space +. (need *. f);
          dist_bytes := !dist_bytes +. (need *. (1. -. f));
          inject := !inject +. (need *. f *. float_of_int plan.P.cores_used)
        done;
        let dist_time =
          if !dist_bytes > 0. then Elk_cost.Costmodel.predict_transfer cost ~hops ~bytes:!dist_bytes
          else 0.
        in
        let preload_len =
          Float.max hbm_floor
            (Float.max (!inject /. P.inject_rate chip) (!preload_space /. link_bw))
        in
        { P.frac; preload_space = !preload_space; dist_bytes_per_core = !dist_bytes; dist_time;
          hbm_device_bytes = device_bytes; noc_inject_bytes = !inject; preload_len; hbm_floor }
      in
      let opts = List.map option_at (fracs [] 1.) in
      match
        Elk_util.Pareto.frontier
          (List.map
             (fun o ->
               { Elk_util.Pareto.x = o.P.preload_space; y = P.preload_overhead o; payload = o })
             opts)
      with
      | [] -> [ List.hd opts ]
      | pts -> List.map (fun p -> p.Elk_util.Pareto.payload) pts
    end

  let kendall_tau a b =
    if List.sort compare a <> List.sort compare b then
      invalid_arg "Reorder.kendall_tau: not permutations of the same set";
    let posb = Hashtbl.create 16 in
    List.iteri (fun i x -> Hashtbl.replace posb x i) b;
    let arr = Array.of_list (List.map (Hashtbl.find posb) a) in
    let n = Array.length arr in
    let count = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if arr.(i) > arr.(j) then incr count
      done
    done;
    !count
end

(* Seeded random operators: a kind of the cost model's, 2-4 iteration
   dims with extents that include 1, primes and sizes that overflow a
   core's SRAM, 1-3 inputs and an output each indexed by a random subset
   of the dims, random sources and dtypes. *)
let random_op =
  let open QCheck2.Gen in
  let open Elk_tensor in
  let extent =
    oneof
      [
        oneofl [ 1; 2; 3; 5; 7; 13; 31; 61; 127; 251; 509; 1021 ];
        int_range 1 300;
        oneofl [ 64; 96; 128; 512; 1024; 2048; 4096 ];
      ]
  in
  let* kind = oneofl Elk_cost.Costmodel.default_kinds in
  let* ndims = int_range 2 4 in
  let* iter = array_size (pure ndims) extent in
  let dims =
    map
      (fun bits -> List.filter (fun d -> bits land (1 lsl d) <> 0) (List.init ndims Fun.id))
      (int_bound ((1 lsl ndims) - 1))
  in
  let tensor t_name =
    map2
      (fun dims source -> { Opspec.t_name; dims; source })
      dims
      (oneofl [ Opspec.Weights; Opspec.Kv_cache; Opspec.Activation ])
  in
  let* ninputs = int_range 1 3 in
  let* inputs = flatten_l (List.init ninputs (fun k -> tensor (Printf.sprintf "in%d" k))) in
  let* out_dims = dims in
  let* dtype = oneofl [ Dtype.Fp16; Dtype.Fp32; Dtype.Int8 ] in
  return
    {
      Opspec.name = "rand";
      kind;
      iter;
      inputs;
      output = { Opspec.t_name = "out"; dims = out_dims; source = Opspec.Activation };
      flops_per_point = 2.;
      dtype;
    }

let plan_bits (p : P.plan) =
  ( (p.P.factors, p.P.tile, p.P.cores_used, p.P.max_share_group),
    List.map bits
      [ p.P.exec_space; p.P.exec_time; p.P.compute_time; p.P.exchange_bytes_per_core;
        p.P.hbm_needed_per_core ] )

let option_bits (o : P.preload_opt) =
  List.map bits
    [ o.P.frac; o.P.preload_space; o.P.dist_bytes_per_core; o.P.dist_time; o.P.hbm_device_bytes;
      o.P.noc_inject_bytes; o.P.preload_len; o.P.hbm_floor ]

(* [Partition.enumerate], [exec_frontier] and [preload_options] on a
   fresh context against the enumeration kept above, every float by its
   bits, on the all-to-all and the mesh chip. *)
let qcheck_enumeration_reference =
  Tu.qtest ~count:60 "partition: enumeration equals the whole-plan reference"
    QCheck2.Gen.(pair bool random_op)
    (fun (mesh, op) ->
      let c = P.make_ctx (P.ctx_cost (Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx))) in
      let reference = Ref_partition.compute_plans c op in
      let ref_frontier =
        Elk_util.Pareto.frontier
          (List.map
             (fun p ->
               let o =
                 List.fold_left
                   (fun a o -> Float.min a (P.preload_overhead o))
                   infinity (Ref_partition.preload_options c op p)
               in
               let o = if o = infinity then 0. else o in
               { Elk_util.Pareto.x = p.P.exec_space; y = p.P.exec_time +. o; payload = p })
             reference)
      in
      let point_bits (pt : P.plan Elk_util.Pareto.point) =
        (bits pt.Elk_util.Pareto.x, bits pt.Elk_util.Pareto.y, plan_bits pt.Elk_util.Pareto.payload)
      in
      let frontier = P.exec_frontier c op in
      List.map plan_bits (P.enumerate c op) = List.map plan_bits reference
      && List.map point_bits frontier = List.map point_bits ref_frontier
      && List.for_all
           (fun (pt : P.plan Elk_util.Pareto.point) ->
             let p = pt.Elk_util.Pareto.payload in
             List.map option_bits (P.preload_options c op p)
             = List.map option_bits (Ref_partition.preload_options c op p))
           frontier)

(* [Reorder.kendall_tau] against the list version kept above, on lists
   with duplicates, on permutations of them and on lists that are not:
   both count the same, or both raise [Invalid_argument]. *)
let qcheck_kendall_tau_reference =
  let small = QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 5)) in
  Tu.qtest ~count:500 "reorder: kendall tau equals the list reference"
    QCheck2.Gen.(
      let* a = small in
      let* b = oneof [ shuffle_l a; small; map (fun l -> 0 :: l) (shuffle_l a) ] in
      return (a, b))
    (fun (a, b) ->
      let run f = match f a b with n -> Ok n | exception Invalid_argument _ -> Error () in
      run Elk.Reorder.kendall_tau = run Ref_partition.kendall_tau)

(* Every (operator, frontier plan) pair of the test graph, and those
   whose plan has more than one preload option: residents a search can
   step down. *)
let resident_pool =
  let pool mesh =
    lazy
      (let c = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
       let all =
         Array.to_list (Graph.nodes (graph ()))
         |> List.concat_map (fun (w : Graph.node) ->
                List.map
                  (fun pt -> Elk.Alloc.frontier c w pt.Elk_util.Pareto.payload)
                  (P.exec_frontier c w.Graph.op))
       in
       ( Array.of_list all,
         Array.of_list (List.filter (fun f -> Array.length (Elk.Alloc.options f) > 1) all) ))
  in
  let a2a = pool false and mesh = pool true in
  fun m -> Lazy.force (if m then mesh else a2a)

(* One induction step's searches share a window's scratch: each horizon's
   result must not depend on which horizons were searched before it.
   Over a zoo model's operators, with random resident plans (mostly ones
   with several preload options) and capacities drawn around the whole
   window's largest footprint, so that searches step down or fail,
   searching every prefix ascending, descending, and each in a window of
   its own gives the same results, floats by bits. *)
let qcheck_step_searches_independent =
  Tu.qtest ~count:200 "alloc: a step's searches do not depend on horizon order"
    QCheck2.Gen.(quad bool (int_bound 100_000) (int_range 0 16) (float_range 0.2 1.05))
    (fun (mesh, seed, residents, cap_frac) ->
      let c = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
      let g = graph () in
      let node = Graph.get g (seed mod Graph.length g) in
      let all, several = resident_pool mesh in
      let residents =
        Array.init residents (fun k ->
            let pick = (seed / 3) + (k * 7919) in
            if k mod 4 <> 3 && several <> [||] then several.(pick mod Array.length several)
            else all.(pick mod Array.length all))
      in
      let largest =
        Array.fold_left
          (fun a f ->
            let o = Elk.Alloc.options f in
            a +. o.(Array.length o - 1).P.preload_space)
          (List.fold_left (fun a pt -> Float.max a pt.Elk_util.Pareto.x) 0.
             (P.exec_frontier c node.Graph.op))
          residents
      in
      let capacity = cap_frac *. largest in
      let search w len =
        match Elk.Alloc.allocate_or_error ~capacity ~len w with
        | Error m -> Error m
        | Ok r ->
            Ok
              ( r.Elk.Alloc.exec_index,
                r.Elk.Alloc.exec_plan.P.factors,
                (r.Elk.Alloc.len, r.Elk.Alloc.steps),
                List.map bits
                  [ r.Elk.Alloc.exec_time; r.Elk.Alloc.objective; r.Elk.Alloc.total_space;
                    r.Elk.Alloc.contention ],
                List.map
                  (fun (op, o) -> (op, bits o.P.frac, bits o.P.preload_space))
                  (Elk.Alloc.chosen w r) )
      in
      let window rs = Elk.Alloc.window (Elk.Alloc.exec_frontier c node) rs in
      let w = window residents in
      let lens = List.init (Array.length residents + 1) Fun.id in
      let ascending = List.map (search w) lens in
      let descending = List.rev (List.map (search w) (List.rev lens)) in
      let alone = List.map (fun len -> search (window (Array.sub residents 0 len)) len) lens in
      ascending = descending && ascending = alone)

let qcheck_scheduler_respects_max_preload =
  Tu.qtest ~count:8 "scheduler: windows never exceed max_preload + floor growth"
    QCheck2.Gen.(int_range 1 12)
    (fun cap ->
      let s = Elk.Scheduler.run ~max_preload:cap (ctx ()) (graph ()) in
      (* Each horizon extends at most [cap] beyond its floor; since floors
         advance by at least 1 per op, windows are bounded by cap + 1. *)
      Array.for_all (fun w -> w <= cap + 1) (Elk.Scheduler.preload_numbers s))

let qcheck_hbm_larger_reads_not_faster =
  Tu.qtest ~count:40 "hbm: completion is monotone in request size"
    QCheck2.Gen.(pair (float_range 1e3 1e6) (float_range 1e3 1e6))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let dev () = Elk_hbm.Hbm.create Elk_hbm.Hbm.hbm3e_module in
      Elk_hbm.Hbm.read (dev ()) ~now:0. ~offset:0. ~bytes:lo
      <= Elk_hbm.Hbm.read (dev ()) ~now:0. ~offset:0. ~bytes:hi +. 1e-12)

let qcheck_gtext_random_roundtrip =
  Tu.qtest ~count:25 "gtext: random mixed graphs roundtrip"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Elk_util.Xrng.create seed in
      let b = Graph.builder ~name:"rr" in
      let n = 2 + Elk_util.Xrng.int rng 12 in
      for i = 0 to n - 1 do
        let op =
          match Elk_util.Xrng.int rng 5 with
          | 0 ->
              Elk_tensor.Opspec.matmul ~name:(Printf.sprintf "m%d" i)
                ~m:(1 + Elk_util.Xrng.int rng 64)
                ~n:(1 + Elk_util.Xrng.int rng 64)
                ~k:(1 + Elk_util.Xrng.int rng 64)
                ()
          | 1 ->
              Elk_tensor.Opspec.batch_matmul ~name:(Printf.sprintf "b%d" i)
                ~batch:(1 + Elk_util.Xrng.int rng 8)
                ~m:(1 + Elk_util.Xrng.int rng 8)
                ~n:(1 + Elk_util.Xrng.int rng 32)
                ~k:(1 + Elk_util.Xrng.int rng 32)
                ()
          | 2 ->
              Elk_tensor.Opspec.norm ~name:(Printf.sprintf "n%d" i)
                ~kind:(if Elk_util.Xrng.int rng 2 = 0 then "rmsnorm" else "layernorm")
                ~rows:(1 + Elk_util.Xrng.int rng 64)
                ~cols:(1 + Elk_util.Xrng.int rng 64)
                ()
          | 3 ->
              Elk_tensor.Opspec.rope ~name:(Printf.sprintf "r%d" i)
                ~rows:(1 + Elk_util.Xrng.int rng 64)
                ~cols:(1 + Elk_util.Xrng.int rng 64)
                ()
          | _ ->
              Elk_tensor.Opspec.elementwise ~name:(Printf.sprintf "e%d" i)
                ~arity:(1 + Elk_util.Xrng.int rng 2)
                ~kind:(Elk_util.Xrng.pick rng [ "add"; "mul"; "silu"; "gelu" ])
                ~shape:[ 1 + Elk_util.Xrng.int rng 32; 1 + Elk_util.Xrng.int rng 32 ]
                ()
        in
        let deps = if i = 0 then [] else [ Elk_util.Xrng.int rng i ] in
        ignore (Graph.add b ~deps ~role:(Printf.sprintf "r%d" i) op)
      done;
      let g = Graph.finish b in
      match Gtext.import (Gtext.export g) with
      | Ok g' -> Gtext.roundtrip_equal g g'
      | Error _ -> false)

let qcheck_planio_random_schedules =
  Tu.qtest ~count:6 "planio: scheduler outputs roundtrip through the plan file"
    QCheck2.Gen.(int_bound 3)
    (fun seed ->
      ignore seed;
      let s = Elk.Scheduler.run (ctx ()) (graph ()) in
      match Elk.Planio.import (ctx ()) (Elk.Planio.export s) with
      | Ok s' ->
          let t a = (Elk.Timeline.evaluate (ctx ()) a).Elk.Timeline.total in
          Float.abs (t s -. t s') < 1e-12
      | Error _ -> false)

let qcheck_sharding_flops_split =
  Tu.qtest ~count:20 "sharding: chips split FLOPs roughly evenly"
    QCheck2.Gen.(int_range 2 8)
    (fun chips ->
      let g = Lazy.force Tu.tiny_llama in
      let s = Elk.Sharding.shard_graph ~chips g in
      let ratio = Graph.total_flops g /. (Graph.total_flops s *. float_of_int chips) in
      (* Norm replication and ceil rounding leave some slack. *)
      ratio > 0.7 && ratio < 1.3)

(* The series derived from a run conserve volume: the HBM and NoC
   series carry exactly the bytes of the phases of positive length, and
   every core's busy series carries its compute + exchange buckets —
   which ties the two derivations together, so a phase that either one
   drops or counts twice shows up here. *)
let series_conserve_volume (s : Elk.Schedule.t) (r : Sim.result) =
  let module S = Elk_util.Series in
  let se = Sim.series s r in
  let close what a b =
    Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
    || QCheck2.Test.fail_reportf "%s: series total %.17g, expected %.17g" what a b
  in
  let sum f = Array.fold_left (fun a o -> a +. f o) 0. r.Sim.per_op in
  let over t0 t1 bytes = if t1 > t0 then bytes else 0. in
  close "HBM"
    (S.total se.Sim.hbm)
    (sum (fun o -> over o.Sim.pre_start o.Sim.hbm_end o.Sim.device_bytes))
  && close "NoC"
       (S.total se.Sim.noc)
       (sum (fun o ->
            over o.Sim.pre_start o.Sim.pre_end o.Sim.inject_bytes
            +. over o.Sim.exe_start o.Sim.dist_end o.Sim.dist_bytes
            +. over o.Sim.compute_end o.Sim.exe_end o.Sim.exchange_bytes))
  && List.for_all
       (fun c ->
         let b = r.Sim.perf.Elk_sim.Perfcore.per_core.(c) in
         close
           (Printf.sprintf "core %d busy" c)
           (S.total se.Sim.core_busy.(c))
           (b.Elk_sim.Perfcore.compute +. b.Elk_sim.Perfcore.exchange))
       (List.init (Array.length se.Sim.core_busy) Fun.id)

(* A seeded preload order: the a2a or the mesh test context, one to six
   adjacent swaps of the execution order, and a [max_preload] of 1-8. *)
let random_order =
  QCheck2.Gen.(triple bool (list_size (int_range 1 6) (int_bound 1000)) (int_range 1 8))

(* The test graph scheduled under a [random_order] draw. *)
let schedule_random_order (mesh, swaps, max_preload) =
  let ctx = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
  let g = graph () in
  let order = Array.init (Graph.length g) Fun.id in
  List.iter
    (fun k ->
      let i = k mod (Array.length order - 1) in
      let t = order.(i) in
      order.(i) <- order.(i + 1);
      order.(i + 1) <- t)
    swaps;
  (ctx, Elk.Scheduler.run ~order ~max_preload ctx g)

(* Preload orders other than the identity reach the simulator's
   records: the causal DAG's preload parents depend on which gate binds,
   and reordering is what changes that.  On every trajectory the four
   analyses' checks pass, every event but the root starts exactly when
   its causal parent ends (the parent is the gate's binding argument),
   each Distribute/Exchange event carries its op's per-phase port wait,
   the SRAM-residency record holds its op's phase times, and the derived
   series conserve volume. *)
let qcheck_recorders_on_random_orders =
  Tu.qtest ~count:20 "sim: recorder contracts hold on random preload orders" random_order
    (fun draw ->
      let ctx, s = schedule_random_order draw in
      let r = Sim.run ~events:true ~mem:true ~noc:true ctx s in
      let ok what = function
        | Ok () -> true
        | Error m -> QCheck2.Test.fail_reportf "%s: %s" what m
      in
      let events = Option.get r.Sim.events and mem = Option.get r.Sim.mem in
      ok "Perfcore" (Elk_sim.Perfcore.check r.Sim.perf ~total:r.Sim.total)
      && ok "Critpath" (Cp.check events ~total:r.Sim.total)
      && ok "Memprof" (Elk_analyze.Memprof.check (Elk_analyze.Memprof.analyze ctx s r))
      && ok "Nocprof" (Elk_analyze.Nocprof.check (Elk_analyze.Nocprof.analyze s r))
      && Array.for_all
           (fun (e : Cp.event) ->
             let o = r.Sim.per_op.(e.Cp.op) in
             (match e.Cp.parent with
             | Some p -> events.(p).Cp.t_end = e.Cp.t_start
             | None -> e.Cp.id = 0)
             &&
             match e.Cp.kind with
             | Cp.Distribute -> e.Cp.port_wait = o.Sim.dist_wait
             | Cp.Exchange -> e.Cp.port_wait = o.Sim.ex_wait
             | _ -> true)
           events
      && Array.for_all2
           (fun (m : Mt.op_mem) (o : Sim.op_trace) ->
             m.Mt.m_reserve = o.Sim.pre_start
             && m.Mt.m_deliver = o.Sim.pre_end
             && m.Mt.m_first_use = o.Sim.exe_start
             && m.Mt.m_tail_start = o.Sim.compute_end
             && m.Mt.m_release = o.Sim.exe_end)
           (Array.init (Mt.num_ops mem) (Mt.op_mem mem))
           r.Sim.per_op
      && series_conserve_volume s r)

(* The order search's pruning bound on reordered schedules: never above
   the full evaluation's total, compared with no tolerance, and equal to
   it when the timeline stalls nowhere. *)
let qcheck_lower_bound_on_random_orders =
  Tu.qtest ~count:50 "timeline: lower bound never above the total on random preload orders"
    random_order (fun draw ->
      let ctx, s = schedule_random_order draw in
      let tl = Elk.Timeline.evaluate ctx s and bound = Elk.Timeline.lower_bound ctx s in
      let total = tl.Elk.Timeline.total in
      if not (bound <= total) then
        QCheck2.Test.fail_reportf "bound %h above total %h" bound total;
      if tl.Elk.Timeline.bd.Elk.Timeline.interconnect = 0. && bound <> total then
        QCheck2.Test.fail_reportf "stall-free total %h but bound %h" total bound;
      true)

(* The interval measures behind [Timeline.account], against the
   pairwise list implementations they replaced (kept here as the
   reference): the union by a sort and merge of the whole list, the
   intersection as the union of every pairwise overlap.  Both must agree
   to the bit on lists of up to 200 intervals drawn on a small grid (so
   that touching and duplicate ends are common) with nested, touching,
   duplicate, zero-length and reversed intervals derived from them, and
   some -0, infinite and NaN ends. *)
module Pairwise = struct
  let union_measure intervals =
    let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
    let rec go acc cur = function
      | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
      | (a, b) :: rest -> (
          match cur with
          | None -> go acc (Some (a, b)) rest
          | Some (ca, cb) ->
              if a <= cb then go acc (Some (ca, Float.max cb b)) rest
              else go (acc +. (cb -. ca)) (Some (a, b)) rest)
    in
    go 0. None sorted

  let intersection_measure xs ys =
    let pieces =
      List.concat_map
        (fun (a, b) ->
          List.filter_map
            (fun (c, d) ->
              let lo = Float.max a c and hi = Float.min b d in
              if hi > lo then Some (lo, hi) else None)
            ys)
        xs
    in
    union_measure pieces
end

let gen_intervals =
  let open QCheck2.Gen in
  let point =
    frequency
      [
        (6, map float_of_int (int_range (-3) 30));
        (3, float_range (-3.) 30.);
        (1, oneofl [ -0.; infinity; neg_infinity; nan ]);
      ]
  in
  let derive ((a, b), shape) =
    match shape with
    | 0 -> [ (a, b) ]
    | 1 -> [ (a, b); (a, b) ]
    | 2 -> [ (a, b); (((3. *. a) +. b) /. 4., (a +. (3. *. b)) /. 4.) ]
    | 3 -> [ (a, b); (b, b +. 0.3) ]
    | 4 -> [ (a, a) ]
    | _ -> [ (b, a) ]
  in
  map (List.concat_map derive) (list_size (int_range 0 100) (pair (pair point point) (int_bound 5)))

let qcheck_interval_measures =
  let show l = String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%h, %h)" a b) l) in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"timeline: interval measures equal the pairwise reference"
       ~print:(fun (xs, ys) -> Printf.sprintf "xs = [%s]\nys = [%s]" (show xs) (show ys))
       QCheck2.Gen.(pair gen_intervals gen_intervals)
       (fun (xs, ys) ->
         let check name want got =
           if not (same want got) then
             QCheck2.Test.fail_reportf "%s: reference %h, got %h" name want got
         in
         check "union xs" (Pairwise.union_measure xs) (Elk.Timeline.union_measure xs);
         check "union ys" (Pairwise.union_measure ys) (Elk.Timeline.union_measure ys);
         check "intersection" (Pairwise.intersection_measure xs ys)
           (Elk.Timeline.intersection_measure xs ys);
         check "intersection, swapped" (Pairwise.intersection_measure ys xs)
           (Elk.Timeline.intersection_measure ys xs);
         true))

(* [Stats.percentiles] reads every rank off one [Float.compare] sort.
   The reference is [Stats.percentile] as it was before it became the
   one-rank case: a polymorphic-compare sort per rank.  Every rank must
   agree with it to the bit.  The lists hold 1-500 floats on a small
   grid (so duplicates are common) with -0, infinities and NaN; the
   ranks are random in [0, 100], plus the SLO report's three and both
   ends. *)
let reference_percentile p xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let qcheck_percentiles =
  let open QCheck2.Gen in
  let value =
    frequency
      [
        (6, map float_of_int (int_range (-5) 20));
        (3, float_range (-1e3) 1e3);
        (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan ]);
      ]
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"stats: percentiles equal the per-rank reference"
       ~print:(fun (xs, ps) ->
         let show l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
         Printf.sprintf "xs = [%s]\nps = [%s]" (show xs) (show ps))
       (pair (list_size (int_range 1 500) value) (list_size (int_range 1 6) (float_range 0. 100.)))
       (fun (xs, ps) ->
         let ps = Array.of_list (ps @ [ 0.; 50.; 90.; 99.; 100. ]) in
         let got = Elk_util.Stats.percentiles ps xs in
         Array.iteri
           (fun i p ->
             let want = reference_percentile p xs in
             if not (same want got.(i) && same want (Elk_util.Stats.percentile p xs)) then
               QCheck2.Test.fail_reportf "rank %h: reference %h, percentiles %h, percentile %h"
                 p want got.(i) (Elk_util.Stats.percentile p xs))
           ps;
         true))

let suite =
  [
    qcheck_alloc_fits_any_capacity;
    qcheck_alloc_monotone_in_capacity;
    qcheck_packing_verdict;
    qcheck_exec_frontier_reference;
    qcheck_enumeration_reference;
    qcheck_kendall_tau_reference;
    qcheck_step_searches_independent;
    qcheck_scheduler_respects_max_preload;
    qcheck_hbm_larger_reads_not_faster;
    qcheck_gtext_random_roundtrip;
    qcheck_planio_random_schedules;
    qcheck_sharding_flops_split;
    qcheck_recorders_on_random_orders;
    qcheck_lower_bound_on_random_orders;
    qcheck_interval_measures;
    qcheck_percentiles;
  ]
