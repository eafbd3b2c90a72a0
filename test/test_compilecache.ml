(* Warm/cold determinism of the incremental compile cache: whole-plan
   hits, the on-disk store and the disabled path must all produce plans
   byte-identical to a cold compile — the cache is a pure accelerator,
   never a semantic change. *)

open Elk_model

let options = { Elk.Compile.default_options with max_orders = 8 }

let export (c : Elk.Compile.t) = Elk.Planio.export c.Elk.Compile.schedule
let compile ?(options = options) ctx ~pod g = Elk.Compile.compile ~options ctx ~pod g

(* Run [f] against a freshly reset, enabled cache; restore the previous
   enablement (and a cold cache) afterwards so other suites are
   unaffected whatever order Alcotest runs them in. *)
let with_fresh_cache f =
  let was = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled true;
  Elk.Compilecache.reset ();
  Fun.protect
    ~finally:(fun () ->
      Elk.Compilecache.reset ();
      Elk.Compilecache.set_enabled was)
    f

let llama = Zoo.scale Zoo.llama2_13b ~factor:16 ~layer_factor:20
let decode ctx = Zoo.build llama (Zoo.Decode { batch = 16; ctx })

let test_cold_warm_identical () =
  with_fresh_cache (fun () ->
      let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
      let g = Lazy.force Tu.tiny_llama in
      let cold = compile ctx ~pod g in
      let s = Elk.Compilecache.stats () in
      Alcotest.(check int) "one miss" 1 s.Elk.Compilecache.plan_misses;
      Alcotest.(check int) "no hits yet" 0 s.Elk.Compilecache.plan_hits;
      let warm = compile ctx ~pod g in
      let s = Elk.Compilecache.stats () in
      Alcotest.(check int) "one hit" 1 s.Elk.Compilecache.plan_hits;
      Alcotest.(check string) "warm plan byte-identical" (export cold) (export warm);
      Alcotest.(check int) "same orders tried" cold.Elk.Compile.orders_tried
        warm.Elk.Compile.orders_tried;
      (* After eviction (reset drops every in-memory entry) the recompile
         is cold again and must still produce the same bytes. *)
      Elk.Compilecache.reset ();
      let recold = compile ctx ~pod g in
      let s = Elk.Compilecache.stats () in
      Alcotest.(check int) "cold again" 1 s.Elk.Compilecache.plan_misses;
      Alcotest.(check string) "post-eviction plan byte-identical" (export cold)
        (export recold))

(* The serving ctx-bucket ladder, both topologies: warm compiles (second
   pass over the same buckets) and cache-off compiles must match the
   first pass byte for byte. *)
let test_ladder_cache_off_parity () =
  let buckets = [ 64; 128; 192 ] in
  List.iter
    (fun (label, ctx, pod) ->
      let pod = Lazy.force pod in
      let first, second =
        with_fresh_cache (fun () ->
            ( List.map (fun b -> export (compile ctx ~pod (decode b))) buckets,
              List.map (fun b -> export (compile ctx ~pod (decode b))) buckets ))
      in
      let off =
        let was = Elk.Compilecache.enabled () in
        Elk.Compilecache.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Elk.Compilecache.set_enabled was)
          (fun () -> List.map (fun b -> export (compile ctx ~pod (decode b))) buckets)
      in
      List.iteri
        (fun i b ->
          let name fmt = Printf.sprintf "%s ctx=%d: %s" label b fmt in
          Alcotest.(check string) (name "warm = cold") (List.nth first i)
            (List.nth second i);
          Alcotest.(check string) (name "cache off = cache on") (List.nth first i)
            (List.nth off i))
        buckets)
    [
      ("llama/a2a", Lazy.force Tu.default_ctx, Tu.default_pod);
      ("llama/mesh", Lazy.force Tu.mesh_ctx, Tu.mesh_pod);
    ]

(* Warm and cold plans are identical whatever the jobs count. *)
let test_jobs_parity () =
  let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
  let buckets = [ 64; 128 ] in
  let ladder jobs =
    Elk_util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Elk_util.Pool.set_jobs 1)
      (fun () ->
        with_fresh_cache (fun () ->
            List.map (fun b -> export (compile ctx ~pod (decode b))) buckets))
  in
  let seq = ladder 1 and par = ladder 4 in
  List.iteri
    (fun i b ->
      Alcotest.(check string)
        (Printf.sprintf "ctx=%d identical across jobs" b)
        (List.nth seq i) (List.nth par i))
    buckets

(* Run [f dir] with the on-disk store pointed at a fresh temporary
   directory, removed (and the store switched off) afterwards. *)
let with_disk_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "elk-cache-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end;
    Unix.putenv "ELK_COMPILE_CACHE_DIR" ""
  in
  Unix.putenv "ELK_COMPILE_CACHE_DIR" dir;
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* On-disk store: survives a reset (process restart stand-in), serves
   byte-identical plans, and ignores a bogus cache file. *)
let test_disk_store_roundtrip () =
  with_disk_dir (fun dir ->
      with_fresh_cache (fun () ->
          let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
          let g = Lazy.force Tu.tiny_llama in
          let cold = compile ctx ~pod g in
          Alcotest.(check bool) "entry written" true
            (Sys.file_exists dir && Array.length (Sys.readdir dir) > 0);
          Elk.Compilecache.reset ();
          let warm = compile ctx ~pod g in
          let s = Elk.Compilecache.stats () in
          Alcotest.(check bool) "served from disk" true
            (s.Elk.Compilecache.disk_hits > 0);
          Alcotest.(check string) "disk plan byte-identical" (export cold)
            (export warm);
          (* A corrupt entry reads as a miss, never an error. *)
          Array.iter
            (fun f ->
              let oc = open_out (Filename.concat dir f) in
              output_string oc "garbage";
              close_out oc)
            (Sys.readdir dir);
          Elk.Compilecache.reset ();
          let recold = compile ctx ~pod g in
          let s = Elk.Compilecache.stats () in
          Alcotest.(check int) "corrupt entry is a miss" 1
            s.Elk.Compilecache.plan_misses;
          Alcotest.(check string) "recompiled plan byte-identical" (export cold)
            (export recold)))

(* One flipped byte inside a stored payload reads as a miss: the entry
   must never unmarshal into a silently different value. *)
let test_disk_flipped_byte_is_miss () =
  with_disk_dir (fun dir ->
      let key = "integrity" and value = Array.init 64 float_of_int in
      Elk.Compilecache.disk_store ~key value;
      Alcotest.(check (option (array (float 0.)))) "intact entry reads back"
        (Some value)
        (Elk.Compilecache.disk_find ~key);
      let path =
        match Sys.readdir dir with
        | [| f |] -> Filename.concat dir f
        | files -> Alcotest.failf "expected one entry, found %d" (Array.length files)
      in
      let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* The payload is the last thing in the entry. *)
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      Alcotest.(check (option (array (float 0.)))) "corrupted entry is a miss" None
        (Elk.Compilecache.disk_find ~key))

(* Disabled cache records nothing and touches no store. *)
let test_disabled_is_inert () =
  with_fresh_cache (fun () ->
      Elk.Compilecache.set_enabled false;
      let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
      let g = Lazy.force Tu.tiny_llama in
      let a = compile ctx ~pod g in
      let b = compile ctx ~pod g in
      let s = Elk.Compilecache.stats () in
      Alcotest.(check int) "no misses recorded" 0 s.Elk.Compilecache.plan_misses;
      Alcotest.(check int) "no hits recorded" 0 s.Elk.Compilecache.plan_hits;
      Alcotest.(check string) "plans still deterministic" (export a) (export b))

(* The generic LRU primitive: stamp-based eviction. *)
let test_lru_eviction () =
  let module L = Elk.Compilecache.Lru in
  let t = L.create ~cap:2 () in
  L.put t "a" 1;
  L.put t "b" 2;
  Alcotest.(check (option int)) "a resident" (Some 1) (L.find t "a");
  (* "a" was just touched, so inserting "c" evicts "b". *)
  L.put t "c" 3;
  Alcotest.(check int) "at cap" 2 (L.length t);
  Alcotest.(check (option int)) "lru evicted" None (L.find t "b");
  Alcotest.(check (option int)) "mru kept" (Some 1) (L.find t "a");
  L.clear t;
  Alcotest.(check int) "cleared" 0 (L.length t)

(* [graph_digest] reads every field a plan depends on: the graph name
   and, per node, the id, kind, extents, tensor dims and sources, the
   bits of [flops_per_point], the dtype, the operator name, the layer,
   the role and the deps.  Changing any one changes the key, and a
   tensor's [t_name] does not.  A node's id is its position, so the id
   check swaps two independent nodes.  The pinned zoo key holds the
   encoding itself: a new encoding turns every on-disk entry into a
   miss, so it must be a deliberate change. *)
let test_graph_digest_fields () =
  let module O = Elk_tensor.Opspec in
  let head = O.matmul ~name:"m" ~m:16 ~n:64 ~k:64 () in
  let op = O.elementwise ~flops_per_point:1. ~name:"e" ~kind:"silu" ~shape:[ 256; 64 ] () in
  let graph ?(name = "g") ?layer ?(role = "r") ?(deps = [ 0 ]) op =
    let b = Graph.builder ~name in
    ignore (Graph.add b ~deps:[] ~role:"head" head);
    ignore (Graph.add b ?layer ~deps ~role op);
    Graph.finish b
  in
  let key = Elk.Compilecache.graph_digest in
  let base = key (graph op) in
  let differs what g =
    if key g = base then Alcotest.failf "%s does not change the digest" what
  in
  let map_inputs f op = { op with O.inputs = List.map f op.O.inputs } in
  differs "graph name" (graph ~name:"h" op);
  differs "kind" (graph { op with O.kind = "gelu" });
  differs "extent" (graph { op with O.iter = [| 256; 32 |] });
  differs "tensor dims" (graph (map_inputs (fun t -> { t with O.dims = [ 0 ] }) op));
  differs "tensor source" (graph (map_inputs (fun t -> { t with O.source = O.Weights }) op));
  differs "dtype" (graph { op with O.dtype = Elk_tensor.Dtype.Fp32 });
  differs "flops_per_point 4" (graph { op with O.flops_per_point = 4. });
  differs "operator name" (graph { op with O.name = "renamed" });
  differs "layer Some 0" (graph ~layer:0 op);
  differs "role" (graph ~role:"s" op);
  differs "deps" (graph ~deps:[] op);
  let zero = key (graph { op with O.flops_per_point = 0. }) in
  if zero = key (graph { op with O.flops_per_point = -0. }) then
    Alcotest.fail "0. and -0. flops_per_point share a digest";
  let apart a b =
    let g = Graph.builder ~name:"g" in
    ignore (Graph.add g ~deps:[] ~role:"r" a);
    ignore (Graph.add g ~deps:[] ~role:"r" b);
    key (Graph.finish g)
  in
  if apart head op = apart op head then Alcotest.fail "node ids do not change the digest";
  let output = { op.O.output with O.t_name = "y" } in
  Alcotest.(check string) "tensor names ignored" base
    (key (graph (map_inputs (fun t -> { t with O.t_name = "x" }) { op with O.output })));
  Alcotest.(check int) "32 characters" 32 (String.length base);
  String.iter
    (fun c ->
      if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
        Alcotest.failf "digest %s is not lowercase hex" base)
    base;
  Alcotest.(check string) "pinned llama2-13b/16x20 decode 16x256 key"
    "aff9bd1ab49f843dfabaa869e57bdee0"
    (key (decode 256))

let suite =
  [
    Alcotest.test_case "cold/warm/evicted byte-identical" `Quick
      test_cold_warm_identical;
    Alcotest.test_case "ctx ladder parity (warm, off, both topologies)" `Quick
      test_ladder_cache_off_parity;
    Alcotest.test_case "warm plans identical across jobs" `Quick test_jobs_parity;
    Alcotest.test_case "disk store roundtrip" `Quick test_disk_store_roundtrip;
    Alcotest.test_case "disk entry with a flipped byte is a miss" `Quick
      test_disk_flipped_byte_is_miss;
    Alcotest.test_case "disabled cache is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "graph digest reads every plan field" `Quick
      test_graph_digest_fields;
  ]
