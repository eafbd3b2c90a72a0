open Elk_cost
open Elk_arch

let chip () = Arch.Presets.scaled_chip ()

(* ------------------------------------------------------------------ *)
(* Device                                                             *)
(* ------------------------------------------------------------------ *)

let test_tile_bytes_matmul () =
  Tu.check_float "matmul" (2. *. ((4. *. 16.) +. (16. *. 8.) +. (4. *. 8.)))
    (Device.tile_bytes ~kind:"matmul" ~iter:[| 4; 8; 16 |])

let test_tile_bytes_bmm () =
  Tu.check_float "bmm" (2. *. 2. *. ((3. *. 5.) +. (5. *. 4.) +. (3. *. 4.)))
    (Device.tile_bytes ~kind:"batch_matmul" ~iter:[| 2; 3; 4; 5 |])

let test_tile_bytes_pointwise () =
  Tu.check_float "softmax" (2. *. 2. *. 8. *. 16.)
    (Device.tile_bytes ~kind:"softmax" ~iter:[| 8; 16 |])

let test_tile_flops () =
  Tu.check_float "matmul fpp 2" (2. *. 32.) (Device.tile_flops ~kind:"matmul" ~iter:[| 4; 4; 2 |]);
  Tu.check_float "softmax fpp 5" (5. *. 32.) (Device.tile_flops ~kind:"softmax" ~iter:[| 4; 8 |])

let test_kind_classes () =
  Alcotest.(check bool) "matmul" true (Device.is_matmul_kind "matmul");
  Alcotest.(check bool) "bmm" true (Device.is_matmul_kind "batch_matmul");
  Alcotest.(check bool) "softmax" false (Device.is_matmul_kind "softmax")

let test_exec_time_positive_overhead () =
  let c = chip () in
  let t = Device.exec_time c ~kind:"matmul" ~iter:[| 1; 1; 1 |] in
  Alcotest.(check bool) "at least launch overhead" true (t >= 6e-7)

let test_exec_time_monotone_in_size () =
  let c = chip () in
  let t1 = Device.exec_time c ~kind:"matmul" ~iter:[| 16; 16; 16 |] in
  let t2 = Device.exec_time c ~kind:"matmul" ~iter:[| 64; 64; 64 |] in
  Alcotest.(check bool) "bigger slower" true (t2 > t1)

let test_exec_time_large_tiles_efficient () =
  (* A large aligned matmul tile should achieve most of peak. *)
  let c = chip () in
  let iter = [| 128; 128; 128 |] in
  let t = Device.exec_time c ~kind:"matmul" ~iter in
  let ideal = Device.tile_flops ~kind:"matmul" ~iter /. c.Arch.matmul_flops_per_core in
  Alcotest.(check bool) "above 80% of peak" true (ideal /. t > 0.8)

let test_alignment_penalty () =
  let c = chip () in
  let aligned = Device.exec_time c ~kind:"matmul" ~iter:[| 64; 64; 64 |] in
  let misaligned = Device.exec_time c ~kind:"matmul" ~iter:[| 64; 63; 63 |] in
  (* Fewer points but slower rate: per-flop time must be worse. *)
  let per_flop t iter = t /. Device.tile_flops ~kind:"matmul" ~iter in
  Alcotest.(check bool) "misaligned pays" true
    (per_flop misaligned [| 64; 63; 63 |] > per_flop aligned [| 64; 64; 64 |])

let test_vector_kind_slower () =
  let c = chip () in
  let mm = Device.exec_time c ~kind:"matmul" ~iter:[| 64; 64; 4 |] in
  let sm = Device.exec_time c ~kind:"softmax" ~iter:[| 64; 256 |] in
  (* Same point count; softmax runs on the much slower vector pipeline and
     does more flops/point. *)
  Alcotest.(check bool) "vector slower" true (sm > mm)

let test_measured_noise_bounded_deterministic () =
  let c = chip () in
  let iter = [| 32; 32; 32 |] in
  let base = Device.exec_time c ~kind:"matmul" ~iter in
  let m1 = Device.measured_exec_time c ~kind:"matmul" ~iter in
  let m2 = Device.measured_exec_time c ~kind:"matmul" ~iter in
  Tu.check_float "deterministic" m1 m2;
  Alcotest.(check bool) "within 6%" true (Float.abs (m1 -. base) <= 0.0601 *. base)

let test_exec_time_rejects_bad_iter () =
  let c = chip () in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Device.exec_time c ~kind:"matmul" ~iter:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero raises" true
    (try
       ignore (Device.exec_time c ~kind:"matmul" ~iter:[| 0; 1; 1 |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Linear tree                                                        *)
(* ------------------------------------------------------------------ *)

let test_tree_fits_linear_exactly () =
  let samples = List.init 100 (fun i -> ([| float_of_int i |], (2. *. float_of_int i) +. 5.)) in
  let t = Linear_tree.fit samples in
  Alcotest.(check bool) "small error" true (Linear_tree.mape_on t samples < 0.01);
  Tu.check_close ~eps:1e-3 "interpolates" 25. (Linear_tree.predict t [| 10. |])

let test_tree_splits_piecewise () =
  (* Piecewise function: a single linear model cannot fit; splits must. *)
  let f x = if x < 50. then x else 1000. -. (3. *. x) in
  let samples = List.init 200 (fun i -> ([| float_of_int i |], f (float_of_int i))) in
  let t = Linear_tree.fit samples in
  Alcotest.(check bool) "has splits" true (Linear_tree.depth t >= 1);
  Alcotest.(check bool) "good fit" true (Linear_tree.mape_on t samples < 0.05)

let test_tree_max_depth_respected () =
  let samples =
    List.init 256 (fun i -> ([| float_of_int i |], float_of_int ((i * 37) mod 101)))
  in
  let t = Linear_tree.fit ~max_depth:2 samples in
  Alcotest.(check bool) "depth <= 2" true (Linear_tree.depth t <= 2);
  Alcotest.(check bool) "leaves <= 4" true (Linear_tree.leaves t <= 4)

let test_tree_single_leaf_on_constant () =
  let samples = List.init 50 (fun i -> ([| float_of_int i |], 7.)) in
  let t = Linear_tree.fit samples in
  Alcotest.(check int) "one leaf" 1 (Linear_tree.leaves t);
  Tu.check_close ~eps:1e-6 "constant" 7. (Linear_tree.predict t [| 123. |])

let test_tree_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Linear_tree.fit: no samples") (fun () ->
      ignore (Linear_tree.fit []));
  let t = Linear_tree.fit [ ([| 1.; 2. |], 3.) ] in
  Alcotest.check_raises "dim" (Invalid_argument "Linear_tree.predict: wrong feature dimension")
    (fun () -> ignore (Linear_tree.predict t [| 1. |]))

(* The list fit [Linear_tree.fit] replaced, kept as its reference: the
   array fit must build the same tree, to the bit, on every sample set. *)
module List_fit = struct
  open Elk_util

  let min_leaf = 16

  let leaf_model samples dim =
    if List.length samples <= dim + 2 then begin
      let m = Stats.mean (List.map snd samples) in
      let coeffs = Array.make (dim + 1) 0. in
      coeffs.(dim) <- m;
      coeffs
    end
    else Stats.ols samples

  let sse_of_mean samples =
    let ys = List.map snd samples in
    let m = Stats.mean ys in
    List.fold_left (fun a y -> a +. ((y -. m) ** 2.)) 0. ys

  let candidate_thresholds values =
    let sorted = List.sort_uniq compare values in
    let n = List.length sorted in
    if n < 2 then [] else List.filteri (fun i _ -> i > 0 && i mod max 1 (n / 8) = 0) sorted

  let best_split samples dim =
    let base = sse_of_mean samples in
    let best = ref None in
    for feat = 0 to dim - 1 do
      let values = List.map (fun (f, _) -> f.(feat)) samples in
      List.iter
        (fun thresh ->
          let lo, hi = List.partition (fun (f, _) -> f.(feat) < thresh) samples in
          if List.length lo >= min_leaf && List.length hi >= min_leaf then begin
            let score = base -. (sse_of_mean lo +. sse_of_mean hi) in
            match !best with
            | Some (s, _, _, _, _) when s >= score -> ()
            | _ -> best := Some (score, feat, thresh, lo, hi)
          end)
        (candidate_thresholds values)
    done;
    match !best with
    | Some (score, feat, thresh, lo, hi) when score > base *. 1e-4 -> Some (feat, thresh, lo, hi)
    | _ -> None

  let rec grow samples dim ~depth ~max_depth : Linear_tree.node =
    if depth >= max_depth || List.length samples < 2 * min_leaf then
      Leaf (leaf_model samples dim)
    else
      match best_split samples dim with
      | None -> Leaf (leaf_model samples dim)
      | Some (feat, thresh, lo, hi) ->
          Split
            {
              feat;
              thresh;
              lo = grow lo dim ~depth:(depth + 1) ~max_depth;
              hi = grow hi dim ~depth:(depth + 1) ~max_depth;
            }

  let fit ?(max_depth = 7) samples =
    let dim = Array.length (fst (List.hd samples)) in
    { Linear_tree.dim; root = grow samples dim ~depth:0 ~max_depth }
end

(* Sample sets of 1-9 features, sized around twice the minimum leaf,
   around [dim + 2] (the OLS cut-off) or larger.  A column is constant, a
   few repeated values (so thresholds tie with many samples), small
   integers, spread floats, small integers with some NaN, a scaled copy of
   the first column (it sorts the samples alike, so the fit skips it), or
   the first column with its ties broken in sample order (it sorts them
   alike too, but has more thresholds);
   targets are a few repeated values, spread floats, or piecewise linear
   in the first feature. *)
let sample_set =
  let open QCheck2.Gen in
  let* dim = int_range 1 9 in
  let* n = oneof [ int_range 26 40; int_range (dim + 1) (dim + 4); int_range 41 160 ] in
  let* max_depth = oneofl [ 1; 3; 7 ] in
  let ints = map float_of_int (int_range 1 64) in
  let column =
    oneof
      [
        map (fun c -> `Draw (pure c)) (float_range 0. 10.);
        pure (`Draw (oneofl [ 1.; 2.; 3.; 5. ]));
        pure (`Draw ints);
        pure (`Draw (float_range 0. 1e6));
        pure (`Draw (frequency [ (9, ints); (1, pure Float.nan) ]));
        pure `Scaled_first;
        pure `Untied_first;
      ]
  in
  let* columns = array_repeat dim column in
  let draw = Array.map (function `Draw g -> g | `Scaled_first | `Untied_first -> pure 0.) columns in
  let* rows = list_repeat n (flatten_a draw) in
  let rows =
    List.mapi
      (fun i r ->
        Array.mapi
          (fun j v ->
            match columns.(j) with
            | `Scaled_first -> 3. *. r.(0)
            | `Untied_first -> r.(0) +. (1e-3 *. float_of_int i)
            | `Draw _ -> v)
          r)
      rows
  in
  let* target = oneofl [ `Few; `Spread; `Piecewise ] in
  let+ ys =
    flatten_l
      (List.map
         (fun (r : float array) ->
           match target with
           | `Few -> oneofl [ 0.5; 1.; 2. ]
           | `Spread -> float_range (-100.) 100.
           | `Piecewise ->
               map
                 (fun e -> (if r.(0) < 3. then 2. *. r.(0) else 50. -. r.(0)) +. e)
                 (float_range 0. 0.01))
         rows)
  in
  (max_depth, List.combine rows ys)

(* Same shape and split features, thresholds and leaf coefficients equal
   bit for bit. *)
let same_tree (a : Linear_tree.t) (b : Linear_tree.t) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let rec go (x : Linear_tree.node) (y : Linear_tree.node) =
    match (x, y) with
    | Leaf c, Leaf c' -> Array.length c = Array.length c' && Array.for_all2 same c c'
    | Split s, Split s' ->
        s.feat = s'.feat && same s.thresh s'.thresh && go s.lo s'.lo && go s.hi s'.hi
    | _ -> false
  in
  a.dim = b.dim && go a.root b.root

(* Column 0 is NaN on the 16 high-target samples and column 1 is 0 there;
   elsewhere both hold 1 to 4.  The two sort the samples alike, but only
   column 1 has a cut that puts the NaN samples on the low side, and it
   is the best split. *)
let test_nan_feature_does_not_hide_its_twin () =
  let samples =
    List.init 64 (fun i ->
        if i < 16 then ([| Float.nan; 0. |], 100. +. float_of_int (i mod 3))
        else
          let v = float_of_int (1 + (i mod 4)) in
          ([| v; v |], float_of_int (i mod 5)))
  in
  let fit = Linear_tree.fit samples in
  Alcotest.(check bool) "equals the list fit" true (same_tree fit (List_fit.fit samples));
  match fit.root with
  | Split { feat; _ } -> Alcotest.(check int) "splits on the finite column" 1 feat
  | Leaf _ -> Alcotest.fail "no split"

let qcheck_array_fit_matches_list_fit =
  Tu.qtest ~count:300 "ltree: array fit equals the list fit to the bit" sample_set
    (fun (max_depth, samples) ->
      same_tree (Linear_tree.fit ~max_depth samples) (List_fit.fit ~max_depth samples))

(* ------------------------------------------------------------------ *)
(* Costmodel                                                          *)
(* ------------------------------------------------------------------ *)

let trained = lazy (Costmodel.train ~samples_per_kind:600 (chip ()))

let test_train_covers_kinds () =
  let t = Lazy.force trained in
  List.iter
    (fun k -> Alcotest.(check bool) k true (List.mem k (Costmodel.kinds t)))
    [ "matmul"; "batch_matmul"; "softmax"; "rmsnorm"; "silu" ]

let test_exec_accuracy_fig12 () =
  (* The paper's Fig 12 shows tight measured-vs-predicted correlation; we
     require MAPE under 20% and r2 above 0.9 on held-out shapes. *)
  let t = Lazy.force trained in
  List.iter
    (fun kind ->
      let pairs = Costmodel.exec_accuracy t ~kind ~n:150 in
      let mape = Elk_util.Stats.mape pairs in
      let r2 = Elk_util.Stats.r2 pairs in
      if mape > 0.2 then Alcotest.failf "%s MAPE %.3f too high" kind mape;
      if r2 < 0.9 then Alcotest.failf "%s r2 %.3f too low" kind r2)
    [ "matmul"; "batch_matmul"; "softmax" ]

let test_transfer_accuracy () =
  let t = Lazy.force trained in
  let pairs = Costmodel.transfer_accuracy t ~n:150 in
  Alcotest.(check bool) "MAPE < 15%" true (Elk_util.Stats.mape pairs < 0.15)

let test_predictions_positive () =
  let t = Lazy.force trained in
  let rng = Elk_util.Xrng.create 3 in
  for _ = 1 to 100 do
    let iter = Costmodel.random_tile rng ~chip:(chip ()) ~kind:"matmul" in
    Alcotest.(check bool) "positive" true (Costmodel.predict_exec t ~kind:"matmul" ~iter > 0.)
  done

let test_unknown_kind_falls_back () =
  let t = Lazy.force trained in
  let p = Costmodel.predict_exec t ~kind:"mystery" ~iter:[| 8; 8 |] in
  Tu.check_float "falls back to device model" (Device.exec_time (chip ()) ~kind:"mystery" ~iter:[| 8; 8 |]) p

let test_transfer_monotone () =
  let t = Lazy.force trained in
  let t1 = Costmodel.predict_transfer t ~hops:2 ~bytes:1e3 in
  let t2 = Costmodel.predict_transfer t ~hops:2 ~bytes:5e5 in
  Alcotest.(check bool) "monotone" true (t2 > t1);
  Tu.check_float "zero bytes" 0. (Costmodel.predict_transfer t ~hops:2 ~bytes:0.)

let test_hbm_time_roofline () =
  let t = Lazy.force trained in
  let c = chip () in
  let bytes = 32e6 in
  let time = Costmodel.hbm_time t ~bytes in
  (* Large sequential reads achieve 85-100% of chip HBM bandwidth. *)
  let floor = bytes /. c.Arch.hbm_bandwidth in
  Alcotest.(check bool) "above physical floor" true (time >= floor *. 0.999);
  Alcotest.(check bool) "within 1.3x of floor" true (time <= 1.3 *. floor);
  Tu.check_float "zero" 0. (Costmodel.hbm_time t ~bytes:0.)

let test_ideal_exec_time_scales () =
  let c = chip () in
  let op = Tu.matmul_op in
  let t64 = Costmodel.ideal_exec_time c op ~cores:64 in
  let t256 = Costmodel.ideal_exec_time c op ~cores:256 in
  Tu.check_rel "4x cores -> 4x faster" ~tolerance:1e-6 (t64 /. 4.) t256

let test_random_tile_fits_sram () =
  let c = chip () in
  let rng = Elk_util.Xrng.create 9 in
  for _ = 1 to 200 do
    List.iter
      (fun kind ->
        let iter = Costmodel.random_tile rng ~chip:c ~kind in
        Alcotest.(check bool) "fits" true
          (Device.tile_bytes ~kind ~iter <= Arch.usable_sram_per_core c))
      [ "matmul"; "batch_matmul"; "softmax" ]
  done

(* ------------------------------------------------------------------ *)
(* Costmodel memo                                                     *)
(* ------------------------------------------------------------------ *)

(* Requests that each change one input of a fit from the default: every
   field of the chip, the seed and the sample count. *)
let memo_requests =
  let c = chip () in
  let link f = { c with Arch.intercore_link = f c.Arch.intercore_link } in
  let topology t = { c with Arch.topology = t } in
  List.map
    (fun (name, chip) -> (name, 42, 64, chip))
    [
      ("default", c);
      ("cores", { c with Arch.cores = 32 });
      ("sram_per_core", { c with Arch.sram_per_core = c.Arch.sram_per_core /. 2. });
      ("net_buffer_per_core", { c with Arch.net_buffer_per_core = c.Arch.sram_per_core /. 2. });
      ("freq_hz", { c with Arch.freq_hz = c.Arch.freq_hz *. 2. });
      ( "matmul_flops_per_core",
        { c with Arch.matmul_flops_per_core = c.Arch.matmul_flops_per_core *. 2. } );
      ( "vector_flops_per_core",
        { c with Arch.vector_flops_per_core = c.Arch.vector_flops_per_core *. 2. } );
      ("sram_bw_per_core", { c with Arch.sram_bw_per_core = c.Arch.sram_bw_per_core *. 2. });
      ("mesh 8x8", topology (Arch.Mesh2d { rows = 8; cols = 8 }));
      ("mesh 4x16", topology (Arch.Mesh2d { rows = 4; cols = 16 }));
      ( "clustered",
        topology
          (Arch.Clustered { clusters = 8; cluster_size = 8; l2_bandwidth = c.Arch.hbm_bandwidth })
      );
      ("link latency", link (fun l -> { l with Arch.latency = l.Arch.latency *. 2. }));
      ("link bandwidth", link (fun l -> { l with Arch.bandwidth = l.Arch.bandwidth *. 2. }));
      ("hbm_controllers", { c with Arch.hbm_controllers = c.Arch.hbm_controllers * 2 });
      ("hbm_bandwidth", { c with Arch.hbm_bandwidth = c.Arch.hbm_bandwidth *. 2. });
      ("hbm_latency", { c with Arch.hbm_latency = c.Arch.hbm_latency *. 2. });
    ]
  @ [
      ("seed", 7, 64, c);
      (* Past 200: the transfer fit draws [max 200 samples_per_kind]. *)
      ("samples_per_kind", 42, 250, c);
    ]

let check_same_model label memo fresh =
  let me, mt = Costmodel.trees memo and fe, ft = Costmodel.trees fresh in
  Alcotest.(check (list string)) (label ^ ": kinds") (List.map fst fe) (List.map fst me);
  List.iter2
    (fun (kind, a) (_, b) ->
      if not (same_tree a b) then Alcotest.failf "%s: %s tree differs from a fresh fit" label kind)
    me fe;
  if not (same_tree mt ft) then Alcotest.failf "%s: transfer tree differs from a fresh fit" label;
  Alcotest.(check string) (label ^ ": fingerprint") (Costmodel.fingerprint fresh)
    (Costmodel.fingerprint memo)

(* Whichever request comes first, each gets a fresh fit's trees: a key
   that left out an input the fit reads would hand one of two requests
   differing in it the other's trees. *)
let test_memo_matches_fresh_fits () =
  let fresh =
    List.map
      (fun (name, seed, samples_per_kind, chip) ->
        (name, Costmodel.train ~seed ~samples_per_kind chip))
      memo_requests
  in
  List.iter
    (fun order ->
      Costmodel.clear_memo ();
      List.iter
        (fun (name, seed, samples_per_kind, chip) ->
          check_same_model name
            (Costmodel.for_chip ~seed ~samples_per_kind chip)
            (List.assoc name fresh))
        order)
    [ memo_requests; List.rev memo_requests ];
  Costmodel.clear_memo ()

let test_memo_across_domains () =
  Costmodel.clear_memo ();
  let c = chip () in
  let pool = Elk_util.Pool.create ~jobs:4 in
  let models =
    Fun.protect
      ~finally:(fun () -> Elk_util.Pool.shutdown pool)
      (fun () ->
        Elk_util.Pool.map pool
          (fun _ -> Costmodel.for_chip ~samples_per_kind:64 c)
          [ 1; 2; 3; 4 ])
  in
  let fresh = Costmodel.train ~samples_per_kind:64 c in
  List.iteri (fun i m -> check_same_model (Printf.sprintf "domain request %d" i) m fresh) models;
  Costmodel.clear_memo ()

let fit_spans () =
  List.length
    (List.filter (fun s -> s.Elk_obs.Span.name = "costmodel.train") (Elk_obs.Span.spans ()))

let test_reset_refits () =
  let c = chip () in
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  Elk_obs.Span.clear ();
  Fun.protect
    ~finally:(fun () ->
      if not was_enabled then Elk_obs.Control.disable ();
      Elk_obs.Span.clear ())
    (fun () ->
      ignore (Costmodel.for_chip ~samples_per_kind:64 c);
      let first = fit_spans () in
      ignore (Costmodel.for_chip ~samples_per_kind:64 c);
      Alcotest.(check int) "a repeated request fits nothing" first (fit_spans ());
      Elk.Compilecache.reset ();
      ignore (Costmodel.for_chip ~samples_per_kind:64 c);
      Alcotest.(check int) "after a reset, the execution and transfer trees are fitted again"
        (first + 2) (fit_spans ()));
  Costmodel.clear_memo ()

(* The default chips' models, pinned: a fit that drifts fails here, not
   only through the plans compiled with it. *)
let test_default_fingerprints () =
  List.iter
    (fun (name, topology_kind, digest) ->
      Alcotest.(check string) name digest
        (Costmodel.fingerprint (Costmodel.for_chip (Arch.Presets.scaled_chip ~topology_kind ()))))
    [
      ("a2a", `All_to_all, "20ca4dd8d6d8f5e7397a00be72fb4f01");
      ("mesh", `Mesh, "050554a576758e345503e1db96df3781");
    ]

let suite =
  [
    ("device: matmul tile bytes", `Quick, test_tile_bytes_matmul);
    ("device: bmm tile bytes", `Quick, test_tile_bytes_bmm);
    ("device: pointwise tile bytes", `Quick, test_tile_bytes_pointwise);
    ("device: tile flops", `Quick, test_tile_flops);
    ("device: kind classes", `Quick, test_kind_classes);
    ("device: launch overhead", `Quick, test_exec_time_positive_overhead);
    ("device: monotone in size", `Quick, test_exec_time_monotone_in_size);
    ("device: large tiles efficient", `Quick, test_exec_time_large_tiles_efficient);
    ("device: alignment penalty", `Quick, test_alignment_penalty);
    ("device: vector pipeline slower", `Quick, test_vector_kind_slower);
    ("device: measurement noise", `Quick, test_measured_noise_bounded_deterministic);
    ("device: rejects bad iter", `Quick, test_exec_time_rejects_bad_iter);
    ("ltree: exact linear", `Quick, test_tree_fits_linear_exactly);
    ("ltree: piecewise splits", `Quick, test_tree_splits_piecewise);
    ("ltree: max depth", `Quick, test_tree_max_depth_respected);
    ("ltree: constant single leaf", `Quick, test_tree_single_leaf_on_constant);
    ("ltree: errors", `Quick, test_tree_errors);
    ("costmodel: kinds trained", `Quick, test_train_covers_kinds);
    ("costmodel: Fig 12 accuracy", `Slow, test_exec_accuracy_fig12);
    ("costmodel: transfer accuracy", `Quick, test_transfer_accuracy);
    ("costmodel: predictions positive", `Quick, test_predictions_positive);
    ("costmodel: unknown kind fallback", `Quick, test_unknown_kind_falls_back);
    ("costmodel: transfer monotone", `Quick, test_transfer_monotone);
    ("costmodel: hbm roofline", `Quick, test_hbm_time_roofline);
    ("costmodel: ideal exec scales", `Quick, test_ideal_exec_time_scales);
    ("costmodel: random tiles fit", `Quick, test_random_tile_fits_sram);
    qcheck_array_fit_matches_list_fit;
    ( "ltree: a NaN feature does not hide its twin",
      `Quick,
      test_nan_feature_does_not_hide_its_twin );
    ("costmodel: memo equals a fresh fit on every input", `Quick, test_memo_matches_fresh_fits);
    ("costmodel: memo shared across domains", `Quick, test_memo_across_domains);
    ("costmodel: reset makes the memo fit again", `Quick, test_reset_refits);
    ("costmodel: default fingerprints pinned", `Quick, test_default_fingerprints);
  ]
