open Elk_tensor

(* ------------------------------------------------------------------ *)
(* Dtype                                                              *)
(* ------------------------------------------------------------------ *)

let test_dtype_sizes () =
  Alcotest.(check int) "fp32" 4 (Dtype.size_bytes Dtype.Fp32);
  Alcotest.(check int) "fp16" 2 (Dtype.size_bytes Dtype.Fp16);
  Alcotest.(check int) "bf16" 2 (Dtype.size_bytes Dtype.Bf16);
  Alcotest.(check int) "int8" 1 (Dtype.size_bytes Dtype.Int8);
  Alcotest.(check int) "int32" 4 (Dtype.size_bytes Dtype.Int32)

let test_dtype_roundtrip () =
  List.iter
    (fun d ->
      match Dtype.of_string (Dtype.to_string d) with
      | Some d' -> Alcotest.(check bool) "roundtrip" true (d = d')
      | None -> Alcotest.fail "of_string failed")
    Dtype.all;
  Alcotest.(check bool) "unknown" true (Dtype.of_string "fp64" = None)

(* ------------------------------------------------------------------ *)
(* Opspec: constructors and accounting                                *)
(* ------------------------------------------------------------------ *)

let test_matmul_flops () =
  let op = Opspec.matmul ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  Tu.check_float "flops" (2. *. 4. *. 8. *. 16.) (Opspec.flops op);
  Tu.check_float "points" (4. *. 8. *. 16.) (Opspec.points op)

let test_matmul_bytes () =
  let op = Opspec.matmul ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  (* fp16: act 4x16, weight 16x8, out 4x8 *)
  Tu.check_float "hbm = weight" (16. *. 8. *. 2.) (Opspec.hbm_bytes op);
  Tu.check_float "act in" (4. *. 16. *. 2.) (Opspec.activation_in_bytes op);
  Tu.check_float "out" (4. *. 8. *. 2.) (Opspec.output_bytes op);
  Tu.check_float "footprint"
    ((4. *. 16. *. 2.) +. (16. *. 8. *. 2.) +. (4. *. 8. *. 2.))
    (Opspec.footprint_bytes op)

let test_matmul_dtype_scaling () =
  let op16 = Opspec.matmul ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  let op32 = Opspec.matmul ~dtype:Dtype.Fp32 ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  Tu.check_float "fp32 doubles" (2. *. Opspec.hbm_bytes op16) (Opspec.hbm_bytes op32)

let test_batch_matmul_kv () =
  let op = Opspec.batch_matmul ~name:"score" ~batch:8 ~m:2 ~n:64 ~k:32 () in
  (* rhs defaults to Kv_cache: batch x n x k elements *)
  Tu.check_float "kv bytes" (8. *. 64. *. 32. *. 2.) (Opspec.hbm_bytes op);
  Tu.check_float "flops" (2. *. 8. *. 2. *. 64. *. 32.) (Opspec.flops op)

let test_batch_matmul_activation_rhs () =
  let op =
    Opspec.batch_matmul ~rhs_source:Opspec.Activation ~name:"s" ~batch:2 ~m:4 ~n:4 ~k:4 ()
  in
  Tu.check_float "no hbm" 0. (Opspec.hbm_bytes op);
  Tu.check_float "intensity" infinity (Opspec.arithmetic_intensity op)

let test_softmax_no_hbm () =
  let op = Opspec.softmax ~name:"sm" ~rows:16 ~cols:64 () in
  Tu.check_float "no hbm" 0. (Opspec.hbm_bytes op);
  Tu.check_float "flops" (5. *. 16. *. 64.) (Opspec.flops op)

let test_norm_scale_vector () =
  let op = Opspec.norm ~name:"n" ~rows:16 ~cols:64 () in
  Tu.check_float "scale vector resident" (64. *. 2.) (Opspec.hbm_bytes op);
  Alcotest.(check string) "kind" "rmsnorm" op.Opspec.kind;
  let ln = Opspec.norm ~kind:"layernorm" ~name:"n" ~rows:2 ~cols:4 () in
  Alcotest.(check string) "layernorm" "layernorm" ln.Opspec.kind

let test_rope_freq_table () =
  let op = Opspec.rope ~name:"r" ~rows:8 ~cols:32 () in
  Tu.check_float "freqs" (32. *. 2.) (Opspec.hbm_bytes op)

let test_elementwise_arity () =
  let op1 = Opspec.elementwise ~name:"e" ~kind:"add" ~shape:[ 4; 8 ] () in
  Alcotest.(check int) "one input" 1 (List.length op1.Opspec.inputs);
  let op2 = Opspec.elementwise ~arity:2 ~name:"e" ~kind:"add" ~shape:[ 4; 8 ] () in
  Alcotest.(check int) "two inputs" 2 (List.length op2.Opspec.inputs);
  Tu.check_float "act in doubles" (2. *. Opspec.activation_in_bytes op1)
    (Opspec.activation_in_bytes op2)

let test_embedding_gathered_slice () =
  let op = Opspec.embedding ~name:"emb" ~rows:32 ~vocab:50000 ~hidden:64 () in
  (* Only the gathered rows transit HBM, not the whole table. *)
  Tu.check_float "gathered" (32. *. 64. *. 2.) (Opspec.hbm_bytes op)

let test_arithmetic_intensity () =
  let op = Opspec.matmul ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  Tu.check_close ~eps:1e-9 "ai" (Opspec.flops op /. Opspec.hbm_bytes op)
    (Opspec.arithmetic_intensity op)

let test_is_hbm_heavy () =
  let op = Opspec.matmul ~name:"mm" ~m:4 ~n:8 ~k:16 () in
  Alcotest.(check bool) "heavy at 0" true (Opspec.is_hbm_heavy op ~threshold:0.);
  Alcotest.(check bool) "not heavy" false (Opspec.is_hbm_heavy op ~threshold:1e12)

(* ------------------------------------------------------------------ *)
(* Opspec: validation                                                 *)
(* ------------------------------------------------------------------ *)

let ok op =
  match Opspec.validate op with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected valid: %s" m

let err op =
  match Opspec.validate op with
  | Ok () -> Alcotest.fail "expected invalid"
  | Error _ -> ()

let test_validate_constructors () =
  ok (Opspec.matmul ~name:"a" ~m:1 ~n:1 ~k:1 ());
  ok (Opspec.batch_matmul ~name:"b" ~batch:2 ~m:3 ~n:4 ~k:5 ());
  ok (Opspec.softmax ~name:"c" ~rows:2 ~cols:2 ());
  ok (Opspec.norm ~name:"d" ~rows:2 ~cols:2 ());
  ok (Opspec.rope ~name:"e" ~rows:2 ~cols:2 ());
  ok (Opspec.elementwise ~name:"f" ~kind:"silu" ~shape:[ 2; 3; 4 ] ());
  ok (Opspec.embedding ~name:"g" ~rows:2 ~vocab:10 ~hidden:4 ());
  ok (Opspec.conv_patchify ~name:"h" ~tokens:4 ~in_dim:16 ~out_dim:8 ())

let test_validate_rejects_bad_extent () =
  err { (Opspec.matmul ~name:"a" ~m:1 ~n:1 ~k:1 ()) with Opspec.iter = [| 0; 1; 1 |] };
  err { (Opspec.matmul ~name:"a" ~m:1 ~n:1 ~k:1 ()) with Opspec.iter = [||] }

let test_validate_rejects_bad_dims () =
  let op = Opspec.matmul ~name:"a" ~m:2 ~n:2 ~k:2 () in
  err
    {
      op with
      Opspec.inputs =
        [ { Opspec.t_name = "x"; dims = [ 2; 1 ]; source = Opspec.Activation } ];
    };
  err
    {
      op with
      Opspec.inputs = [ { Opspec.t_name = "x"; dims = [ 0; 5 ]; source = Opspec.Activation } ];
    };
  err
    {
      op with
      Opspec.inputs = [ { Opspec.t_name = "x"; dims = [ 1; 1 ]; source = Opspec.Activation } ];
    }

let test_validate_rejects_negative_flops () =
  List.iter
    (fun f -> err { (Opspec.softmax ~name:"s" ~rows:2 ~cols:2 ()) with Opspec.flops_per_point = f })
    [ -1.; Float.nan; infinity; neg_infinity ]

let qcheck_matmul_accounting =
  Tu.qtest ~count:80 "opspec: matmul accounting scales correctly"
    QCheck2.Gen.(triple (int_range 1 64) (int_range 1 64) (int_range 1 64))
    (fun (m, n, k) ->
      let op = Opspec.matmul ~name:"q" ~m ~n ~k () in
      Opspec.validate op = Ok ()
      && Opspec.flops op = 2. *. float_of_int (m * n * k)
      && Opspec.hbm_bytes op = 2. *. float_of_int (n * k)
      && Opspec.footprint_bytes op = 2. *. float_of_int ((m * k) + (n * k) + (m * n)))

let suite =
  [
    ("dtype: sizes", `Quick, test_dtype_sizes);
    ("dtype: string roundtrip", `Quick, test_dtype_roundtrip);
    ("opspec: matmul flops", `Quick, test_matmul_flops);
    ("opspec: matmul bytes", `Quick, test_matmul_bytes);
    ("opspec: dtype scaling", `Quick, test_matmul_dtype_scaling);
    ("opspec: batch matmul KV", `Quick, test_batch_matmul_kv);
    ("opspec: bmm activation rhs", `Quick, test_batch_matmul_activation_rhs);
    ("opspec: softmax no hbm", `Quick, test_softmax_no_hbm);
    ("opspec: norm scale vector", `Quick, test_norm_scale_vector);
    ("opspec: rope freq table", `Quick, test_rope_freq_table);
    ("opspec: elementwise arity", `Quick, test_elementwise_arity);
    ("opspec: embedding slice", `Quick, test_embedding_gathered_slice);
    ("opspec: arithmetic intensity", `Quick, test_arithmetic_intensity);
    ("opspec: hbm heavy predicate", `Quick, test_is_hbm_heavy);
    ("opspec: constructors valid", `Quick, test_validate_constructors);
    ("opspec: rejects bad extents", `Quick, test_validate_rejects_bad_extent);
    ("opspec: rejects bad dims", `Quick, test_validate_rejects_bad_dims);
    ("opspec: rejects negative flops", `Quick, test_validate_rejects_negative_flops);
    qcheck_matmul_accounting;
  ]
