(* Tests for the §8 compatibility passes: pointwise fusion and dtype
   casting (quantization). *)

open Elk_model

let graph () = Lazy.force Tu.tiny_llama
let fused = lazy (Elk.Fusion.fuse (Lazy.force Tu.tiny_llama))

let test_fusion_removes_ops () =
  let g = graph () and f = Lazy.force fused in
  let removed = Elk.Fusion.fused_away ~before:g ~after:f in
  (* At least silu, scale and two kv-appends per layer fuse. *)
  Alcotest.(check bool) "several per layer" true
    (removed >= 3 * List.length (Graph.layer_ids g))

let test_fusion_preserves_flops () =
  let g = graph () and f = Lazy.force fused in
  Tu.check_rel "flops exact" ~tolerance:1e-9 (Graph.total_flops g) (Graph.total_flops f)

let test_fusion_preserves_hbm () =
  let g = graph () and f = Lazy.force fused in
  Tu.check_rel "hbm exact" ~tolerance:1e-9 (Graph.total_hbm_bytes g)
    (Graph.total_hbm_bytes f)

let test_fusion_valid_graph () =
  let f = Lazy.force fused in
  Alcotest.(check bool) "valid order" true
    (Graph.is_valid_order f (List.init (Graph.length f) (fun i -> i)))

let test_fusion_names_joined () =
  let f = Lazy.force fused in
  Alcotest.(check bool) "a gate+silu exists" true
    (Array.exists
       (fun (n : Graph.node) ->
         n.Graph.role = "ffn_gate"
         && String.length n.Graph.op.Elk_tensor.Opspec.name > 5
         &&
         let name = n.Graph.op.Elk_tensor.Opspec.name in
         String.length name >= 5
         && String.sub name (String.length name - 5) 5 = "+silu")
       (Graph.nodes f))

let test_fusion_fixpoint () =
  let f = Lazy.force fused in
  Alcotest.(check bool) "second pass is identity" true (Elk.Fusion.fuse f == f)

let test_fusion_untouched_graph_identity () =
  (* A graph with no fusable chain comes back physically unchanged. *)
  let b = Graph.builder ~name:"nofuse" in
  let a = Graph.add b ~role:"a" (Elk_tensor.Opspec.matmul ~name:"m" ~m:4 ~n:4 ~k:4 ()) in
  let _ =
    Graph.add b ~deps:[ a ] ~role:"b" (Elk_tensor.Opspec.softmax ~name:"s" ~rows:4 ~cols:4 ())
  in
  let g = Graph.finish b in
  Alcotest.(check bool) "identity" true (Elk.Fusion.fuse g == g)

let test_fusion_respects_multi_consumers () =
  (* A pointwise op whose producer has another consumer must not fuse. *)
  let b = Graph.builder ~name:"shared" in
  let a = Graph.add b ~role:"a" (Elk_tensor.Opspec.matmul ~name:"m" ~m:4 ~n:4 ~k:4 ()) in
  let _ =
    Graph.add b ~deps:[ a ] ~role:"act"
      (Elk_tensor.Opspec.elementwise ~name:"r" ~kind:"relu" ~shape:[ 4; 4 ] ())
  in
  let _ =
    Graph.add b ~deps:[ a ] ~role:"other"
      (Elk_tensor.Opspec.softmax ~name:"s" ~rows:4 ~cols:4 ())
  in
  let g = Graph.finish b in
  Alcotest.(check bool) "no fusion" true (Elk.Fusion.fuse g == g)

let test_fused_graph_compiles () =
  let f = Lazy.force fused in
  let pod = Lazy.force Tu.default_pod and ctx = Lazy.force Tu.default_ctx in
  let c = Elk.Compile.compile ~options:Elk.Compile.dyn_options ctx ~pod f in
  Alcotest.(check bool) "compiles" true (Elk.Compile.latency c > 0.)


let test_compile_fuse_option () =
  (* The §8 fusion pass runs before compiling, as [bench compat] runs it,
     and shrinks the scheduled graph. *)
  let g = graph () in
  let pod = Lazy.force Tu.default_pod and ctx = Lazy.force Tu.default_ctx in
  let c =
    Elk.Compile.compile ~options:Elk.Compile.dyn_options ctx ~pod (Elk.Fusion.fuse g)
  in
  Alcotest.(check bool) "fewer scheduled ops" true
    (Graph.length c.Elk.Compile.chip_graph < Graph.length g);
  Alcotest.(check bool) "compiles" true (Elk.Compile.latency c > 0.)

(* ---- quantization cast ------------------------------------------- *)

let test_cast_halves_hbm () =
  let g = graph () in
  let q = Zoo.cast_dtype Elk_tensor.Dtype.Int8 g in
  Tu.check_rel "half the bytes" ~tolerance:1e-9 (Graph.total_hbm_bytes g /. 2.)
    (Graph.total_hbm_bytes q)

let test_cast_preserves_structure () =
  let g = graph () in
  let q = Zoo.cast_dtype Elk_tensor.Dtype.Int8 g in
  Alcotest.(check int) "same ops" (Graph.length g) (Graph.length q);
  Array.iter
    (fun (n : Graph.node) ->
      Alcotest.(check bool) "int8" true
        (n.Graph.op.Elk_tensor.Opspec.dtype = Elk_tensor.Dtype.Int8))
    (Graph.nodes q);
  Alcotest.(check bool) "valid" true
    (Graph.is_valid_order q (List.init (Graph.length q) (fun i -> i)))

let test_cast_speeds_up_decode () =
  (* Decode is HBM-bound: int8 weights must help end to end. *)
  let env = Elk_dse.Dse.env () in
  let g = graph () in
  let q = Zoo.cast_dtype Elk_tensor.Dtype.Int8 g in
  let l graph =
    (Elk_dse.Dse.evaluate ~elk_options:Elk.Compile.dyn_options env graph
       Elk_baselines.Baselines.Elk_dyn)
      .Elk_dse.Dse.latency
  in
  Alcotest.(check bool) "int8 faster" true (l q < l g)

let suite =
  [
    ("fusion: removes ops", `Quick, test_fusion_removes_ops);
    ("fusion: flops preserved", `Quick, test_fusion_preserves_flops);
    ("fusion: hbm preserved", `Quick, test_fusion_preserves_hbm);
    ("fusion: valid graph", `Quick, test_fusion_valid_graph);
    ("fusion: names joined", `Quick, test_fusion_names_joined);
    ("fusion: fixpoint", `Quick, test_fusion_fixpoint);
    ("fusion: identity when nothing fuses", `Quick, test_fusion_untouched_graph_identity);
    ("fusion: multi-consumer blocked", `Quick, test_fusion_respects_multi_consumers);
    ("fusion: fused graph compiles", `Slow, test_fused_graph_compiles);
    ("fusion: compile option", `Slow, test_compile_fuse_option);
    ("quant: halves hbm", `Quick, test_cast_halves_hbm);
    ("quant: structure preserved", `Quick, test_cast_preserves_structure);
    ("quant: faster decode", `Slow, test_cast_speeds_up_decode);
  ]
