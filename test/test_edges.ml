(* Edge-coverage tests: printers, small helpers, and less-traveled code
   paths across the libraries. *)

open Elk_model

let ctx () = Lazy.force Tu.default_ctx
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_units_printers () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "bw" "5.50GB/s" (s Elk_util.Units.pp_bandwidth 5.5e9);
  Alcotest.(check string) "flops" "1.00TFLOP/s" (s Elk_util.Units.pp_flops 1e12);
  Alcotest.(check string) "tiny time" "150.0ns" (s Elk_util.Units.pp_time 150e-9)

let test_table_rowf_and_empty () =
  let t = Elk_util.Table.create ~title:"empty" ~columns:[ "a" ] in
  let rendered = Elk_util.Table.render t in
  Alcotest.(check bool) "renders header only" true (contains rendered "== empty ==");
  Elk_util.Table.add_rowf t "%.2f" 3.14159;
  Alcotest.(check bool) "rowf formats" true (contains (Elk_util.Table.render t) "3.14")

let test_arch_printers () =
  let s = Format.asprintf "%a" Elk_arch.Arch.pp_chip (Elk_arch.Arch.Presets.gpu_like_chip ()) in
  Alcotest.(check bool) "clusters named" true (contains s "clusters");
  let s2 =
    Format.asprintf "%a" Elk_arch.Arch.pp_pod (Elk_arch.Arch.Presets.scaled_pod ())
  in
  Alcotest.(check bool) "pod named" true (contains s2 "pod{4 x")

let test_graph_summary () =
  let s = Format.asprintf "%a" Graph.pp_summary (Lazy.force Tu.tiny_llama) in
  Alcotest.(check bool) "mentions model" true (contains s "llama2-13b")

let test_device_alignment_classes () =
  let c = Elk_arch.Arch.Presets.scaled_chip () in
  let t iter = Elk_cost.Device.exec_time c ~kind:"matmul" ~iter in
  let per_flop iter = t iter /. Elk_cost.Device.tile_flops ~kind:"matmul" ~iter in
  (* One misaligned dim sits between fully aligned and fully misaligned. *)
  let full = per_flop [| 64; 64; 64 |] in
  let one = per_flop [| 64; 63; 64 |] in
  let both = per_flop [| 64; 63; 63 |] in
  Alcotest.(check bool) "ordering" true (full < one && one < both)

let test_costmodel_alignment_features () =
  let f = Elk_cost.Costmodel.features ~kind:"matmul" ~iter:[| 8; 16; 17 |] in
  Tu.check_float "n aligned" 1. f.(7);
  Tu.check_float "k misaligned" 0. f.(8)

let test_timeline_pp () =
  let tl = Elk.Timeline.evaluate (ctx ()) (Lazy.force Tu.tiny_schedule) in
  let s = Format.asprintf "%a" Elk.Timeline.pp_breakdown tl.Elk.Timeline.bd in
  Alcotest.(check bool) "has buckets" true (contains s "overlap")

let test_reorder_no_layers () =
  let b = Graph.builder ~name:"flat" in
  let _ = Graph.add b ~role:"a" (Elk_tensor.Opspec.matmul ~name:"m" ~m:4 ~n:64 ~k:64 ()) in
  let _ = Graph.add b ~role:"b" (Elk_tensor.Opspec.matmul ~name:"n" ~m:4 ~n:64 ~k:64 ()) in
  let g = Graph.finish b in
  Alcotest.(check (list int)) "no template without layers" []
    (Elk.Reorder.template_layer_heavy g);
  let orders = Elk.Reorder.candidate_orders (ctx ()) g in
  Alcotest.(check int) "identity only" 1 (List.length orders)

let test_sharding_allreduce_roles () =
  let g = Lazy.force Tu.tiny_llama in
  let expected =
    Array.fold_left
      (fun a (n : Graph.node) ->
        if List.mem n.Graph.role [ "o_proj"; "ffn_down"; "lm_head" ] then
          a +. Elk_tensor.Opspec.output_bytes n.Graph.op
        else a)
      0. (Graph.nodes g)
  in
  Tu.check_rel "allreduce volume" ~tolerance:1e-9 expected (Elk.Sharding.allreduce_volume g)

let test_shard_op_identity_one_chip () =
  let op = Elk_tensor.Opspec.matmul ~name:"x" ~m:4 ~n:64 ~k:64 () in
  Alcotest.(check bool) "chips=1 physical identity" true
    (Elk.Sharding.shard_op ~chips:1 ~role:"q_proj" op == op)

let test_codegen_rounds_loop () =
  (* A plan with more tiles than cores emits the round loop. *)
  let op = Elk_tensor.Opspec.matmul ~name:"big" ~m:64 ~n:1000 ~k:640 () in
  let c = ctx () in
  let plans = Elk_partition.Partition.enumerate c op in
  let multi =
    List.find
      (fun p ->
        Array.fold_left ( * ) 1 p.Elk_partition.Partition.factors
        > (Elk_partition.Partition.ctx_chip c).Elk_arch.Arch.cores)
      plans
  in
  let popt = List.hd (Elk_partition.Partition.preload_options c op multi) in
  let b = Graph.builder ~name:"one" in
  let _ = Graph.add b ~role:"lm_head" op in
  let g = Graph.finish b in
  let src = Elk.Codegen.kernel_of c (Graph.get g 0) multi popt in
  Alcotest.(check bool) "round loop" true (contains src "for (int round")

let test_opsplit_chunk_names () =
  let oversized = Elk_tensor.Opspec.matmul ~name:"head" ~m:64 ~n:8000 ~k:640 () in
  let chunks = Elk.Opsplit.split_op (ctx ()) oversized in
  List.iteri
    (fun i op ->
      Alcotest.(check bool) "chunk name" true
        (contains op.Elk_tensor.Opspec.name (Printf.sprintf "chunk%d" i)))
    chunks

let test_planio_missing_entry () =
  let s = Lazy.force Tu.tiny_schedule in
  let text = Elk.Planio.export s in
  (* Drop the entry for op 0. *)
  let corrupted =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.length l > 8 && String.sub l 0 8 = "entry 0 "))
    |> String.concat "\n"
  in
  Alcotest.(check bool) "missing entry rejected" true
    (Result.is_error (Elk.Planio.import (ctx ()) corrupted))

(* An [order] id outside [0, n) is a load error naming the id, not an
   out-of-bounds exception escaping the permutation check. *)
let test_planio_order_out_of_range () =
  let s = Lazy.force Tu.tiny_schedule in
  let text = Elk.Planio.export s in
  List.iter
    (fun bad ->
      let corrupted =
        String.split_on_char '\n' text
        |> List.map (fun l ->
               match String.index_opt l ',' with
               | Some i when String.length l > 6 && String.sub l 0 6 = "order " ->
                   Printf.sprintf "order %d%s" bad (String.sub l i (String.length l - i))
               | _ -> l)
        |> String.concat "\n"
      in
      Alcotest.(check bool)
        (Printf.sprintf "order id %d rejected" bad)
        true
        (Result.is_error (Elk.Planio.import (ctx ()) corrupted)))
    [ Elk.Schedule.num_ops s; -1 ]

let test_gtext_import_file () =
  let path = Filename.temp_file "elkgraph" ".gt" in
  let oc = open_out path in
  output_string oc (Gtext.export (Lazy.force Tu.tiny_llama));
  close_out oc;
  (match Gtext.import_file path with
  | Ok g ->
      Alcotest.(check int) "same size" (Graph.length (Lazy.force Tu.tiny_llama))
        (Graph.length g)
  | Error m -> Alcotest.fail m);
  Sys.remove path

let test_pipeline_pp () =
  let p = Elk_pipeline.Pipeline.plan (ctx ()) (Lazy.force Tu.tiny_llama_chip_graph) ~stages:2 in
  let s = Format.asprintf "%a" Elk_pipeline.Pipeline.pp_plan p in
  Alcotest.(check bool) "mentions stages" true (contains s "2 stages")

let test_energy_pp () =
  let sch = Lazy.force Tu.tiny_schedule in
  let r = Elk_sim.Sim.run (ctx ()) sch in
  let e = Elk_energy.Energy.evaluate (ctx ()) sch.Elk.Schedule.graph r in
  let s = Format.asprintf "%a" Elk_energy.Energy.pp_report e in
  Alcotest.(check bool) "mentions EDP" true (contains s "EDP")

let test_report_markdown () =
  let env = Elk_dse.Dse.env () in
  let g = Lazy.force Tu.tiny_llama in
  let c = Elk.Compile.compile ~options:Elk.Compile.dyn_options env.Elk_dse.Dse.ctx
      ~pod:env.Elk_dse.Dse.pod g in
  let r = Elk_sim.Sim.run env.Elk_dse.Dse.ctx c.Elk.Compile.schedule in
  let md = Elk_dse.Report.markdown env c r in
  List.iter
    (fun section -> Alcotest.(check bool) section true (contains md section))
    [ "# Elk compilation report"; "## Time breakdown"; "## Preload numbers";
      "## Per-layer simulated time"; "## Slowest operators" ]

let test_hbm_replay_matches_reads () =
  let cfg = Elk_hbm.Hbm.hbm3e_module in
  let trace = [ (0., 1e6); (1e6, 2e6); (4e6, 1e6) ] in
  let t1 = Elk_hbm.Hbm.replay (Elk_hbm.Hbm.create cfg) trace in
  (* Replay issues sequentially; must cost at least the largest single
     request and at most the sum of isolated requests plus slack. *)
  let isolated =
    List.fold_left
      (fun a (o, b) -> a +. Elk_hbm.Hbm.read (Elk_hbm.Hbm.create cfg) ~now:0. ~offset:o ~bytes:b)
      0. trace
  in
  Alcotest.(check bool) "bounded" true (t1 > 0. && t1 <= isolated *. 1.5)

(* A 0-op graph parses, and a schedule of it has consistent lengths
   ([windows = [|0|]]), but no entry point takes it: [Schedule.validate]
   rejects it, so [Sim.run], [Timeline.evaluate] and
   [Timeline.lower_bound] each raise their own named error (never a bare
   index error) and the verifier reports [dep.schedule-structure]. *)
let test_zero_op_schedule () =
  let g =
    match Gtext.import "graph empty" with Ok g -> g | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "no operators" 0 (Graph.length g);
  let s =
    { Elk.Schedule.graph = g; order = [||]; windows = [| 0 |]; entries = [||]; est_total = 0. }
  in
  let ctx = ctx () in
  let names_itself entry prefix f =
    match f () with
    | () -> Alcotest.failf "%s accepted a 0-op schedule" entry
    | exception Invalid_argument m ->
        if not (String.starts_with ~prefix m) then
          Alcotest.failf "%s raised %S, not its own %S error" entry m prefix
  in
  names_itself "Sim.run" "Sim.run: invalid schedule: empty schedule" (fun () ->
      ignore (Elk_sim.Sim.run ctx s));
  names_itself "Timeline.evaluate" "Timeline.evaluate: empty schedule" (fun () ->
      ignore (Elk.Timeline.evaluate ctx s));
  names_itself "Timeline.lower_bound" "Timeline.lower_bound: empty schedule" (fun () ->
      ignore (Elk.Timeline.lower_bound ctx s));
  match Elk_verify.Verify.check ctx s (Elk.Program.of_schedule s) with
  | Ok () -> Alcotest.fail "Verify.check passed a 0-op schedule"
  | Error m ->
      if not (contains m "dep.schedule-structure") then
        Alcotest.failf "Verify.check: %S does not name dep.schedule-structure" m

(* A plan compiled for the 64-core chip and checked against a 16-core
   one names cores that chip does not have.  The verifier reports each
   such operator under [dep.schedule-structure], naming it and both
   counts, and [Sim.run] raises its own named error before it routes a
   core.  [Timeline] prices what the entries say, so it takes the plan. *)
let test_plan_wider_than_chip () =
  let module Dg = Elk_verify.Diag in
  let s = Lazy.force Tu.tiny_schedule and small = Lazy.force Tu.small_ctx in
  let cores = (Elk_partition.Partition.ctx_chip small).Elk_arch.Arch.cores in
  let used (e : Elk.Schedule.op_entry) = e.Elk.Schedule.plan.Elk_partition.Partition.cores_used in
  let wide = List.filter (fun e -> used e > cores) (Array.to_list s.Elk.Schedule.entries) in
  if wide = [] then Alcotest.failf "no operator uses more than %d cores" cores;
  let r = Elk_verify.Verify.run small s in
  List.iter
    (fun (e : Elk.Schedule.op_entry) ->
      let op = e.Elk.Schedule.node_id in
      let message = Printf.sprintf "uses %d cores but the chip has %d" (used e) cores in
      if
        not
          (List.exists
             (fun (d : Dg.t) ->
               d.Dg.rule = "dep.schedule-structure" && d.Dg.loc.Dg.op = Some op
               && d.Dg.message = message)
             r.Elk_verify.Verify.diags)
      then Alcotest.failf "op %d: no dep.schedule-structure %S" op message)
    wide;
  (match Elk_verify.Verify.check small s (Elk.Program.of_schedule s) with
  | Ok () -> Alcotest.fail "Verify.check passed a plan wider than its chip"
  | Error m ->
      if not (contains m "dep.schedule-structure") then
        Alcotest.failf "Verify.check: %S does not name dep.schedule-structure" m);
  let first = List.hd wide in
  let expected =
    Printf.sprintf "Sim.run: op %d uses %d cores but the chip has %d" first.Elk.Schedule.node_id
      (used first) cores
  in
  match Elk_sim.Sim.run small s with
  | _ -> Alcotest.fail "Sim.run took a plan wider than its chip"
  | exception Invalid_argument m -> Alcotest.(check string) "Sim.run names the op" expected m

let suite =
  [
    ("edges: unit printers", `Quick, test_units_printers);
    ("edges: table rowf/empty", `Quick, test_table_rowf_and_empty);
    ("edges: arch printers", `Quick, test_arch_printers);
    ("edges: graph summary", `Quick, test_graph_summary);
    ("edges: device alignment classes", `Quick, test_device_alignment_classes);
    ("edges: alignment features", `Quick, test_costmodel_alignment_features);
    ("edges: timeline printer", `Quick, test_timeline_pp);
    ("edges: reorder without layers", `Quick, test_reorder_no_layers);
    ("edges: allreduce roles", `Quick, test_sharding_allreduce_roles);
    ("edges: shard identity", `Quick, test_shard_op_identity_one_chip);
    ("edges: codegen round loop", `Quick, test_codegen_rounds_loop);
    ("edges: opsplit chunk names", `Quick, test_opsplit_chunk_names);
    ("edges: planio missing entry", `Quick, test_planio_missing_entry);
    ("edges: planio order id out of range", `Quick, test_planio_order_out_of_range);
    ("edges: gtext import_file", `Quick, test_gtext_import_file);
    ("edges: pipeline printer", `Quick, test_pipeline_pp);
    ("edges: energy printer", `Quick, test_energy_pp);
    ("edges: report sections", `Slow, test_report_markdown);
    ("edges: hbm replay bounds", `Quick, test_hbm_replay_matches_reads);
    ("edges: a 0-op schedule is rejected by name", `Quick, test_zero_op_schedule);
    ("edges: a plan wider than its chip is rejected by name", `Quick,
     test_plan_wider_than_chip);
  ]
