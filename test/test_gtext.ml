open Elk_model

let test_roundtrip_zoo_models () =
  List.iter
    (fun (cfg, phase) ->
      let g = Zoo.build cfg phase in
      match Gtext.import (Gtext.export g) with
      | Ok g' ->
          Alcotest.(check bool)
            (cfg.Zoo.cfg_name ^ " roundtrips")
            true
            (Gtext.roundtrip_equal g g')
      | Error m -> Alcotest.failf "%s failed to reimport: %s" cfg.Zoo.cfg_name m)
    [
      (Zoo.scale Zoo.llama2_13b ~factor:16 ~layer_factor:20, Zoo.Decode { batch = 4; ctx = 64 });
      (Zoo.scale Zoo.opt_30b ~factor:8 ~layer_factor:24, Zoo.Decode { batch = 4; ctx = 64 });
      (Zoo.scale Zoo.dit_xl ~factor:8 ~layer_factor:14, Zoo.Decode { batch = 2; ctx = 1 });
      (Zoo.scale Zoo.gemma2_27b ~factor:16 ~layer_factor:23, Zoo.Prefill { batch = 2; seq = 32 });
    ]

let test_hand_written_graph () =
  let text =
    {|# a hand-written model
graph mini
op embedding name=emb role=embedding rows=8 vocab=100 hidden=64
op norm      name=n0  role=attn_norm layer=0 rows=8 cols=64 kind=rmsnorm
op matmul    name=q0  role=q_proj layer=0 deps=1 m=8 n=64 k=64
op bmm       name=s0  role=attn_score layer=0 deps=2 batch=2 m=4 n=16 k=16 rhs=kv
op softmax   name=sm0 role=attn_softmax layer=0 deps=3 rows=8 cols=16
op eltwise   name=r0  role=attn_residual deps=0,4 kind=add shape=8x64 arity=2 fpp=1
|}
  in
  match Gtext.import text with
  | Error m -> Alcotest.fail m
  | Ok g ->
      Alcotest.(check string) "name" "mini" (Graph.name g);
      Alcotest.(check int) "ops" 6 (Graph.length g);
      Alcotest.(check (list int)) "explicit deps" [ 0; 4 ] (Graph.get g 5).Graph.deps;
      Alcotest.(check (list int)) "default chain deps" [ 0 ] (Graph.get g 1).Graph.deps;
      let bmm = (Graph.get g 3).Graph.op in
      Tu.check_float "kv bytes" (2. *. 2. *. 16. *. 16.) (Elk_tensor.Opspec.hbm_bytes bmm)

let expect_error text fragment =
  match Gtext.import text with
  | Ok _ -> Alcotest.failf "expected error containing %S" fragment
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" m fragment)
        true
        (let rec contains i =
           i + String.length fragment <= String.length m
           && (String.sub m i (String.length fragment) = fragment || contains (i + 1))
         in
         contains 0)

let test_errors_informative () =
  expect_error "op matmul name=x m=1 n=1 k=1" "before graph";
  expect_error "graph g\nop matmul role=x m=1 n=1 k=1" "name";
  expect_error "graph g\nop matmul name=x n=1 k=1" "missing attribute \"m\"";
  expect_error "graph g\nop warp name=x" "unknown operator form";
  expect_error "graph g\nop matmul name=x m=zap n=1 k=1" "bad integer";
  expect_error "graph g\nop matmul name=x m=1 n=1 k=1 deps=7" "invalid";
  expect_error "nonsense line" "unrecognized";
  expect_error "" "no graph";
  (* A non-finite or unparsable per-point FLOP count would poison every
     FLOP-derived number (Ideal roofline, energy). *)
  let eltwise fpp = "graph g\nop eltwise name=e kind=add shape=8x64 fpp=" ^ fpp in
  expect_error (eltwise "nan") "non-finite flops_per_point";
  expect_error (eltwise "inf") "non-finite flops_per_point";
  expect_error (eltwise "zap") "bad float \"zap\" for fpp"

let test_comments_and_blanks () =
  let text = "# header\n\ngraph g\n# middle\nop softmax name=s rows=2 cols=2\n\n" in
  match Gtext.import text with
  | Ok g -> Alcotest.(check int) "one op" 1 (Graph.length g)
  | Error m -> Alcotest.fail m

let test_dtype_attr () =
  let text = "graph g\nop matmul name=x m=2 n=2 k=2 dt=fp32" in
  match Gtext.import text with
  | Ok g ->
      Alcotest.(check bool) "fp32" true
        ((Graph.get g 0).Graph.op.Elk_tensor.Opspec.dtype = Elk_tensor.Dtype.Fp32);
      (* And it survives a round trip. *)
      Alcotest.(check bool) "roundtrip" true
        (match Gtext.import (Gtext.export g) with
        | Ok g' -> Gtext.roundtrip_equal g g'
        | Error _ -> false)
  | Error m -> Alcotest.fail m

let test_weight_source_attr () =
  let text = "graph g\nop matmul name=x m=2 n=2 k=2 ws=a" in
  match Gtext.import text with
  | Ok g ->
      Tu.check_float "activation weights load nothing" 0.
        (Elk_tensor.Opspec.hbm_bytes (Graph.get g 0).Graph.op)
  | Error m -> Alcotest.fail m

let test_imported_graph_compiles () =
  let g = Zoo.build (Zoo.scale Zoo.llama2_13b ~factor:16 ~layer_factor:20)
      (Zoo.Decode { batch = 8; ctx = 64 }) in
  match Gtext.import (Gtext.export g) with
  | Error m -> Alcotest.fail m
  | Ok g' ->
      let pod = Lazy.force Tu.default_pod in
      let ctx = Lazy.force Tu.default_ctx in
      let c = Elk.Compile.compile ~options:Elk.Compile.dyn_options ctx ~pod g' in
      Alcotest.(check bool) "compiles" true (Elk.Compile.latency c > 0.)

let qcheck_export_lines =
  Tu.qtest ~count:15 "gtext: export emits one line per op plus header"
    QCheck2.Gen.(int_range 1 16)
    (fun n ->
      let b = Graph.builder ~name:"lines" in
      for i = 0 to n - 1 do
        ignore
          (Graph.add b ~role:"x"
             (Elk_tensor.Opspec.softmax ~name:(Printf.sprintf "s%d" i) ~rows:2 ~cols:2 ()))
      done;
      let text = Gtext.export (Graph.finish b) in
      let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
      List.length lines = n + 1)

let suite =
  [
    ("gtext: zoo models roundtrip", `Quick, test_roundtrip_zoo_models);
    ("gtext: hand-written graph", `Quick, test_hand_written_graph);
    ("gtext: informative errors", `Quick, test_errors_informative);
    ("gtext: comments and blanks", `Quick, test_comments_and_blanks);
    ("gtext: dtype attribute", `Quick, test_dtype_attr);
    ("gtext: weight source attribute", `Quick, test_weight_source_attr);
    ("gtext: imported graph compiles", `Slow, test_imported_graph_compiles);
    qcheck_export_lines;
  ]
