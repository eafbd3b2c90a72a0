open Elk_partition
open Elk_tensor
open Elk_util

let ctx () = Lazy.force Tu.default_ctx
let mctx () = Lazy.force Tu.mesh_ctx

(* An operator's signature, as partitioning sees it, is its structure
   without names: identical layers share one memoized frontier, and a
   different shape gets its own. *)
let test_signature_stable_across_layers () =
  let c = Partition.make_ctx (Partition.ctx_cost (ctx ())) in
  let tiles fr = List.map (fun pt -> pt.Pareto.payload.Partition.tile) fr in
  let a = Opspec.matmul ~name:"l0.q" ~m:16 ~n:64 ~k:64 () in
  let b = Opspec.matmul ~name:"l7.q" ~m:16 ~n:64 ~k:64 () in
  Alcotest.(check bool) "same signature" true
    (Partition.exec_frontier c a == Partition.exec_frontier c b);
  let d = Opspec.matmul ~name:"x" ~m:16 ~n:64 ~k:32 () in
  Alcotest.(check bool) "shape matters" true
    (tiles (Partition.exec_frontier c a) <> tiles (Partition.exec_frontier c d))

let test_enumerate_nonempty_sorted () =
  let plans = Partition.enumerate (ctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (plans <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Partition.exec_time <= b.Partition.exec_time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted plans)

let test_plans_fit_constraints () =
  let c = ctx () in
  let chip = Partition.ctx_chip c in
  let sram = Elk_arch.Arch.usable_sram_per_core chip in
  List.iter
    (fun p ->
      Alcotest.(check bool) "cores bound" true
        (p.Partition.cores_used >= 1 && p.Partition.cores_used <= chip.Elk_arch.Arch.cores);
      Alcotest.(check bool) "fits sram" true (p.Partition.exec_space <= sram);
      Alcotest.(check bool) "tile covers" true
        (Array.for_all2 (fun t f -> t * f >= 32 || t * f >= 1) p.Partition.tile
           p.Partition.factors))
    (Partition.enumerate c Tu.matmul_op)

let test_tile_is_ceil_div () =
  List.iter
    (fun p ->
      Array.iteri
        (fun d f ->
          let e = Tu.matmul_op.Opspec.iter.(d) in
          Alcotest.(check int) "ceil division" ((e + f - 1) / f) p.Partition.tile.(d))
        p.Partition.factors)
    (Partition.enumerate (ctx ()) Tu.matmul_op)

let test_frontier_canonical () =
  let f = Partition.exec_frontier (ctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (f <> []);
  Alcotest.(check bool) "canonical" true (Pareto.is_frontier f)

let test_fastest_plan () =
  (* [fastest_plan] minimizes exec time plus the plan's best preload
     overhead (so an execution-fast plan with a pathological preload state
     cannot win); it must come from the enumeration and be within 2x of
     the raw execution-time minimum. *)
  let c = ctx () in
  let plans = Partition.enumerate c Tu.matmul_op in
  let fastest = Partition.fastest_plan c Tu.matmul_op in
  Alcotest.(check bool) "member" true
    (List.exists (fun p -> p.Partition.factors = fastest.Partition.factors) plans);
  let raw_min =
    List.fold_left (fun a p -> Float.min a p.Partition.exec_time) infinity plans
  in
  Alcotest.(check bool) "near raw minimum" true (fastest.Partition.exec_time <= 2. *. raw_min)

let test_fastest_within () =
  let c = ctx () in
  let frontier = Partition.exec_frontier c Tu.matmul_op in
  let smallest = List.hd frontier in
  (match Partition.fastest_plan_within c Tu.matmul_op ~space:smallest.Pareto.x with
  | Some p -> Alcotest.(check bool) "fits budget" true (p.Partition.exec_space <= smallest.Pareto.x)
  | None -> Alcotest.fail "smallest frontier point must fit");
  Alcotest.(check bool) "tiny budget fails" true
    (Partition.fastest_plan_within c Tu.matmul_op ~space:1. = None)

let test_larger_space_not_slower () =
  (* Fig 5's core claim: the frontier trades space for time, so the
     biggest-space frontier plan is the fastest. *)
  let f = Partition.exec_frontier (ctx ()) Tu.matmul_op in
  let first = List.hd f and last = List.nth f (List.length f - 1) in
  Alcotest.(check bool) "more space faster" true (last.Pareto.y <= first.Pareto.y)

let test_mesh_restricts_split_dims () =
  let plans = Partition.enumerate (mctx ()) Tu.matmul_op in
  Alcotest.(check bool) "nonempty" true (plans <> []);
  List.iter
    (fun p ->
      let split = Array.fold_left (fun a f -> if f > 1 then a + 1 else a) 0 p.Partition.factors in
      Alcotest.(check bool) "at most 2 split dims" true (split <= 2))
    plans

let test_a2a_allows_more_dims () =
  let op = Opspec.batch_matmul ~name:"b" ~batch:8 ~m:8 ~n:64 ~k:64 () in
  let plans = Partition.enumerate (ctx ()) op in
  Alcotest.(check bool) "some plan splits 3 dims" true
    (List.exists
       (fun p ->
         Array.fold_left (fun a f -> if f > 1 then a + 1 else a) 0 p.Partition.factors >= 3)
       plans)

(* The frontier is memoized per operator structure, so renamed copies of
   one operator share it; the plan list is recomputed, equal each time. *)
let test_memoization_hits () =
  let c = ctx () in
  let a = Opspec.matmul ~name:"x1" ~m:24 ~n:96 ~k:96 () in
  let b = Opspec.matmul ~name:"x2" ~m:24 ~n:96 ~k:96 () in
  Alcotest.(check bool) "same frontier (memoized)" true
    (Partition.exec_frontier c a == Partition.exec_frontier c b);
  Alcotest.(check bool) "equal plan lists" true
    (Partition.enumerate c a = Partition.enumerate c b)

let test_exchange_zero_when_unshared () =
  (* Partitioning only m slices the activation and shares the weight; a
     plan splitting only the n dim shares the activation instead.  A plan
     that splits nothing has no exchange. *)
  let c = ctx () in
  let op = Opspec.softmax ~name:"s" ~rows:256 ~cols:64 () in
  List.iter
    (fun p ->
      if Array.for_all2 (fun f e -> f = e || f = 1) p.Partition.factors op.Opspec.iter then
        ()
      else ();
      (* softmax input is indexed by both dims: never shared, no exchange
         from inputs; only reduction if cols split. *)
      if p.Partition.factors.(1) = 1 then
        Tu.check_float "row split has no exchange" 0. p.Partition.exchange_bytes_per_core)
    (Partition.enumerate c op)

let test_preload_options_pareto () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  Alcotest.(check bool) "nonempty" true (opts <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Partition.preload_space <= b.Partition.preload_space && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by space" true (ascending opts)

let test_preload_options_extremes () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  let last = List.nth opts (List.length opts - 1) in
  (* Full broadcast: nothing left to distribute. *)
  Tu.check_float "full broadcast no dist" 0. last.Partition.dist_bytes_per_core;
  Tu.check_float "frac 1" 1. last.Partition.frac;
  let first = List.hd opts in
  if List.length opts > 1 then begin
    Alcotest.(check bool) "min space smaller" true
      (first.Partition.preload_space < last.Partition.preload_space);
    Alcotest.(check bool) "min space pays dist" true (first.Partition.dist_bytes_per_core > 0.)
  end

let test_preload_conservation () =
  (* preload_space + dist_bytes = execute-state resident bytes per core. *)
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  List.iter
    (fun o ->
      Tu.check_rel "space + dist = needed" ~tolerance:1e-9 plan.Partition.hbm_needed_per_core
        (o.Partition.preload_space +. o.Partition.dist_bytes_per_core))
    (Partition.preload_options c Tu.matmul_op plan)

let test_preload_device_bytes_constant () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let opts = Partition.preload_options c Tu.matmul_op plan in
  let d = (List.hd opts).Partition.hbm_device_bytes in
  Tu.check_float "= weight bytes" (Opspec.hbm_bytes Tu.matmul_op) d;
  List.iter (fun o -> Tu.check_float "same device bytes" d o.Partition.hbm_device_bytes) opts

let test_preload_no_hbm_single_zero_option () =
  let c = ctx () in
  let op = Opspec.softmax ~name:"s" ~rows:64 ~cols:64 () in
  let plan = Partition.fastest_plan c op in
  match Partition.preload_options c op plan with
  | [ o ] ->
      Tu.check_float "no space" 0. o.Partition.preload_space;
      Tu.check_float "no len" 0. o.Partition.preload_len
  | other -> Alcotest.failf "expected 1 option, got %d" (List.length other)

let test_preload_len_at_least_floor () =
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  List.iter
    (fun o ->
      Alcotest.(check bool) "len >= floor" true
        (o.Partition.preload_len >= o.Partition.hbm_floor -. 1e-15))
    (Partition.preload_options c Tu.matmul_op plan)

let test_overhead_zero_somewhere () =
  (* Some option should be near the HBM floor with no dist: otherwise the
     op is pathologically interconnect-bound. *)
  let c = ctx () in
  let plan = Partition.fastest_plan c Tu.matmul_op in
  let best =
    List.fold_left
      (fun a o -> Float.min a (Partition.preload_overhead o))
      infinity
      (Partition.preload_options c Tu.matmul_op plan)
  in
  Alcotest.(check bool) "small best overhead" true (best < 1e-3)

(* Regression: an early signature was a separator-joined concat of
   kind/iter/dims/dtype that ignored [flops_per_point] entirely — two
   pointwise ops of the same shape but different per-point cost collided
   and shared enumeration results.  In a context warm with one operator,
   each variant must get a frontier of its own, equal to the one a fresh
   context computes for it; a renamed operator gets the warm operator's
   own list. *)
let test_signature_digests_full_spec () =
  let ew ?(flops = 1.) ?(dtype = Dtype.Fp16) name =
    Opspec.elementwise ~dtype ~flops_per_point:flops ~name ~kind:"silu"
      ~shape:[ 256; 64 ] ()
  in
  let cost = Partition.ctx_cost (ctx ()) in
  let warm = Partition.make_ctx cost in
  let bits = Int64.bits_of_float in
  let view fr =
    List.map
      (fun pt ->
        let p = pt.Pareto.payload in
        (p.Partition.factors, bits p.exec_time, bits p.compute_time, bits p.exec_space))
      fr
  in
  let a = ew "e1" in
  let fa = Partition.exec_frontier warm a in
  let distinguishes what op =
    let f = Partition.exec_frontier warm op in
    Alcotest.(check bool) (what ^ ": own frontier") true (f != fa);
    Alcotest.(check bool) (what ^ ": own results") true
      (view f = view (Partition.exec_frontier (Partition.make_ctx cost) op));
    f
  in
  ignore (distinguishes "flops_per_point distinguishes" (ew ~flops:4. "e2"));
  let f32 = distinguishes "dtype distinguishes" (ew ~dtype:Dtype.Fp32 "e3") in
  Alcotest.(check bool) "dtype changes the frontier" true (view f32 <> view fa);
  Alcotest.(check bool) "name still ignored" true
    (Partition.exec_frontier warm (ew "renamed") == fa)

(* The memo tables key on exactly the operator fields partitioning
   reads: renaming the operator or its tensors never adds an entry, every
   other field does, and a stored key is immune to the caller mutating
   its arrays afterwards. *)
let test_memo_keys_structural () =
  let c = Partition.make_ctx (Partition.ctx_cost (ctx ())) in
  let entries () = fst (Partition.memo_sizes c) in
  let adds what expected op =
    let before = entries () in
    ignore (Partition.exec_frontier c op);
    Alcotest.(check int) what (before + expected) (entries ());
    ignore (Partition.exec_frontier c op);
    Alcotest.(check int) (what ^ ": repeat lookup") (before + expected) (entries ())
  in
  let base =
    Opspec.elementwise ~flops_per_point:1. ~name:"e" ~kind:"silu" ~shape:[ 256; 64 ] ()
  in
  let map_inputs f op = { op with Opspec.inputs = List.map f op.Opspec.inputs } in
  adds "first operator" 1 base;
  adds "name ignored" 0 { base with Opspec.name = "renamed" };
  adds "tensor names ignored" 0
    (map_inputs (fun t -> { t with Opspec.t_name = "other" })
       { base with Opspec.output = { base.Opspec.output with Opspec.t_name = "y" } });
  adds "kind" 1 { base with Opspec.kind = "gelu" };
  adds "extent" 1 { base with Opspec.iter = [| 256; 32 |] };
  adds "tensor dims" 1 (map_inputs (fun t -> { t with Opspec.dims = [ 0 ] }) base);
  adds "tensor source" 1 (map_inputs (fun t -> { t with Opspec.source = Opspec.Weights }) base);
  adds "dtype" 1 { base with Opspec.dtype = Dtype.Fp32 };
  adds "flops_per_point" 1 { base with Opspec.flops_per_point = 4. };
  adds "zero flops" 1 { base with Opspec.flops_per_point = 0. };
  adds "negative-zero flops" 1 { base with Opspec.flops_per_point = -0. };
  (* Mutating a looked-up operator's extents must not move its entry. *)
  let mutated = { base with Opspec.iter = [| 128; 64 |] } in
  adds "new extents" 1 mutated;
  mutated.Opspec.iter.(0) <- 64;
  adds "stored extents are a copy" 0 { base with Opspec.iter = [| 128; 64 |] };
  (* Preload options key on the operator and the plan's factors. *)
  let options () = snd (Partition.memo_sizes c) in
  let plan_of factors = Result.get_ok (Partition.plan_with_factors c base factors) in
  let popts what expected op plan =
    let before = options () in
    ignore (Partition.preload_options c op plan);
    Alcotest.(check int) what (before + expected) (options ())
  in
  let factors = [| 1; 1 |] in
  popts "popt: new factors" 1 base (plan_of factors);
  popts "popt: name ignored" 0 { base with Opspec.name = "renamed" } (plan_of [| 1; 1 |]);
  factors.(0) <- 2;
  popts "popt: stored factors are a copy" 0 base (plan_of [| 1; 1 |]);
  popts "popt: other factors" 1 base (plan_of [| 2; 1 |])

(* The frontier step reads each plan's least preload overhead without
   building its option list, so enumeration leaves the option memo empty;
   [preload_options] fills it, one entry per new (operator, factors). *)
let test_option_memo_filled_on_request () =
  let c = Partition.make_ctx (Partition.ctx_cost (ctx ())) in
  let options () = snd (Partition.memo_sizes c) in
  let ops =
    [ Tu.matmul_op;
      Opspec.batch_matmul ~name:"bmm" ~batch:8 ~m:1 ~n:64 ~k:128 ();
      Opspec.elementwise ~name:"e" ~kind:"silu" ~shape:[ 32; 256 ] () ]
  in
  List.iter
    (fun op ->
      ignore (Partition.enumerate c op);
      ignore (Partition.exec_frontier c op);
      ignore (Partition.fastest_plan c op))
    ops;
  Alcotest.(check int) "enumeration adds no option entry" 0 (options ());
  List.iter
    (fun op ->
      let plans = List.map (fun pt -> pt.Pareto.payload) (Partition.exec_frontier c op) in
      let before = options () in
      List.iter (fun p -> ignore (Partition.preload_options c op p)) plans;
      Alcotest.(check int) "one entry per frontier plan" (before + List.length plans) (options ());
      List.iter (fun p -> ignore (Partition.preload_options c op p)) plans;
      Alcotest.(check int) "repeat requests add none" (before + List.length plans) (options ()))
    ops

let test_fingerprint_separates_topologies () =
  Alcotest.(check bool) "a2a and mesh contexts fingerprint apart" true
    (Partition.fingerprint (ctx ()) <> Partition.fingerprint (mctx ()))

(* A context's memos are its own: a second context of the same cost model
   starts empty beside a warm one and computes the same frontier, and
   resetting the compile cache neither empties a live context nor warms a
   new one. *)
let test_context_owns_memos () =
  let cost = Partition.ctx_cost (ctx ()) in
  let c1 = Partition.make_ctx cost and c2 = Partition.make_ctx cost in
  Alcotest.(check string) "equal fingerprints" (Partition.fingerprint c1)
    (Partition.fingerprint c2);
  ignore (Partition.enumerate c1 Tu.matmul_op);
  Alcotest.(check (pair int int)) "the plan list is not memoized" (0, 0)
    (Partition.memo_sizes c1);
  let f1 = Partition.exec_frontier c1 Tu.matmul_op in
  let warm = Partition.memo_sizes c1 in
  Alcotest.(check (pair int int)) "first context memoized its frontier" (1, 0) warm;
  Alcotest.(check (pair int int)) "second context untouched" (0, 0) (Partition.memo_sizes c2);
  let f2 = Partition.exec_frontier c2 Tu.matmul_op in
  let plans f = List.map (fun pt -> pt.Pareto.payload) f in
  Alcotest.(check bool) "equal frontier plans" true (plans f1 = plans f2);
  Elk.Compilecache.reset ();
  Alcotest.(check (pair int int)) "reset leaves a live context warm" warm
    (Partition.memo_sizes c1);
  Alcotest.(check (pair int int)) "a new context starts empty" (0, 0)
    (Partition.memo_sizes (Partition.make_ctx cost))

let qcheck_enumerate_valid =
  Tu.qtest ~count:25 "partition: random matmuls produce consistent plans"
    QCheck2.Gen.(triple (int_range 1 64) (int_range 8 512) (int_range 8 512))
    (fun (m, n, k) ->
      let op = Opspec.matmul ~name:"q" ~m ~n ~k () in
      let c = ctx () in
      let cores = (Partition.ctx_chip c).Elk_arch.Arch.cores in
      List.for_all
        (fun p ->
          p.Partition.exec_time > 0.
          && p.Partition.exec_space > 0.
          && p.Partition.cores_used
             = min cores (Array.fold_left ( * ) 1 p.Partition.factors))
        (Partition.enumerate c op))

let suite =
  [
    ("partition: signatures", `Quick, test_signature_stable_across_layers);
    ("partition: enumerate sorted", `Quick, test_enumerate_nonempty_sorted);
    ("partition: plan constraints", `Quick, test_plans_fit_constraints);
    ("partition: ceil-div tiles", `Quick, test_tile_is_ceil_div);
    ("partition: frontier canonical", `Quick, test_frontier_canonical);
    ("partition: fastest plan", `Quick, test_fastest_plan);
    ("partition: fastest within budget", `Quick, test_fastest_within);
    ("partition: space-time tradeoff", `Quick, test_larger_space_not_slower);
    ("partition: mesh split limit", `Quick, test_mesh_restricts_split_dims);
    ("partition: a2a full splits", `Quick, test_a2a_allows_more_dims);
    ("partition: memoization", `Quick, test_memoization_hits);
    ("partition: unshared no exchange", `Quick, test_exchange_zero_when_unshared);
    ("partition: popt pareto", `Quick, test_preload_options_pareto);
    ("partition: popt extremes", `Quick, test_preload_options_extremes);
    ("partition: popt conservation", `Quick, test_preload_conservation);
    ("partition: device bytes constant", `Quick, test_preload_device_bytes_constant);
    ("partition: no-hbm zero option", `Quick, test_preload_no_hbm_single_zero_option);
    ("partition: len above floor", `Quick, test_preload_len_at_least_floor);
    ("partition: reachable floor", `Quick, test_overhead_zero_somewhere);
    ("partition: signature digests full spec", `Quick, test_signature_digests_full_spec);
    ("partition: memo keys structural", `Quick, test_memo_keys_structural);
    ("partition: option memo filled on request", `Quick, test_option_memo_filled_on_request);
    ("partition: fingerprint separates topologies", `Quick,
     test_fingerprint_separates_topologies);
    ("partition: each context owns its memos", `Quick, test_context_owns_memos);
    qcheck_enumerate_valid;
  ]
