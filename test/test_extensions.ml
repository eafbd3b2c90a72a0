(* Tests for the extension subsystems: code generation, Chrome-trace
   export, the spatial pipeline execution model (paper §7) and the energy
   objective (paper §7). *)

open Elk_model
module P = Elk_partition.Partition

let ctx () = Lazy.force Tu.default_ctx
let sched () = Lazy.force Tu.tiny_schedule

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Codegen                                                            *)
(* ------------------------------------------------------------------ *)

let generated = lazy (Elk.Codegen.generate (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let test_codegen_kernel_per_op () =
  let g = Lazy.force generated in
  Alcotest.(check int) "one kernel per op"
    (Elk.Schedule.num_ops (sched ()))
    (List.length g.Elk.Codegen.kernels)

let test_codegen_host_matches_program () =
  let g = Lazy.force generated in
  let s = sched () in
  let n = Elk.Schedule.num_ops s in
  let count needle =
    List.length
      (List.filter (fun l -> contains l needle) (String.split_on_char '\n' g.Elk.Codegen.host))
  in
  Alcotest.(check int) "N preload_async calls" n (count "preload_async(");
  Alcotest.(check int) "N execute calls" n (count "execute(")

let test_codegen_kernel_structure () =
  let g = Lazy.force generated in
  let s = sched () in
  List.iter
    (fun (id, src) ->
      Alcotest.(check bool) "waits for its preload tag" true
        (contains src (Printf.sprintf "DONE_PRELOAD_OP_%d" id));
      Alcotest.(check bool) "sets its exec tag" true
        (contains src (Printf.sprintf "DONE_EXEC_OP_%d" id));
      Alcotest.(check bool) "has a loop nest" true (contains src "for (int i0");
      let e = s.Elk.Schedule.entries.(id) in
      if e.Elk.Schedule.popt.P.dist_bytes_per_core > 0. then
        Alcotest.(check bool) "partial preload distributes" true
          (contains src "remote_read")
      else
        Alcotest.(check bool) "full broadcast no distribute" true
          (contains src "no-op"))
    g.Elk.Codegen.kernels

let test_codegen_deterministic () =
  let a = Elk.Codegen.generate (ctx ()) (sched ()) in
  let b = Elk.Codegen.generate (ctx ()) (sched ()) in
  Alcotest.(check string) "host stable" a.Elk.Codegen.host b.Elk.Codegen.host;
  Alcotest.(check int) "loc stable" (Elk.Codegen.total_loc a) (Elk.Codegen.total_loc b)

let test_codegen_write_to () =
  let dir = Filename.temp_file "elkgen" "" in
  Sys.remove dir;
  Elk.Codegen.write_to ~dir (Lazy.force generated);
  Alcotest.(check bool) "host.c exists" true (Sys.file_exists (Filename.concat dir "host.c"));
  Alcotest.(check bool) "op kernels exist" true (Sys.file_exists (Filename.concat dir "op0000.c"))

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let sim_result = lazy (Elk_sim.Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let trace_json s r =
  Elk_obs.Chrome.wrap
    (Elk_sim.Trace.chrome_meta @ Elk_sim.Trace.chrome_events s.Elk.Schedule.graph r)

let test_trace_structure () =
  let s = sched () in
  let r = Lazy.force sim_result in
  let json = trace_json s r in
  Alcotest.(check bool) "has traceEvents" true (contains json "traceEvents");
  Alcotest.(check bool) "has preload track" true (contains json "HBM preload");
  Alcotest.(check bool) "has execute track" true (contains json "on-chip execute");
  Alcotest.(check bool) "balanced braces" true
    (let opens = String.fold_left (fun a c -> if c = '{' then a + 1 else a) 0 json in
     let closes = String.fold_left (fun a c -> if c = '}' then a + 1 else a) 0 json in
     opens = closes)

let test_trace_event_count () =
  let s = sched () in
  let r = Lazy.force sim_result in
  let n = List.length (Elk_sim.Trace.chrome_events s.Elk.Schedule.graph r) in
  let events =
    List.length
      (List.filter (fun l -> contains l "\"ph\":\"X\"")
         (String.split_on_char '\n' (trace_json s r)))
  in
  Alcotest.(check int) "event count matches" n events;
  Alcotest.(check bool) "at least one event per op" true (n >= Elk.Schedule.num_ops s)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let graph () = Lazy.force Tu.tiny_llama_chip_graph

let test_pipeline_single_stage () =
  let p = Elk_pipeline.Pipeline.plan (ctx ()) (graph ()) ~stages:1 in
  Alcotest.(check int) "one stage" 1 (List.length p.Elk_pipeline.Pipeline.stages);
  Tu.check_rel "latency = bottleneck" ~tolerance:1e-9 p.Elk_pipeline.Pipeline.bottleneck
    p.Elk_pipeline.Pipeline.latency

let test_pipeline_partition_covers_all_ops () =
  let g = graph () in
  List.iter
    (fun stages ->
      let p = Elk_pipeline.Pipeline.plan (ctx ()) g ~stages in
      let all =
        List.concat_map (fun st -> st.Elk_pipeline.Pipeline.ops) p.Elk_pipeline.Pipeline.stages
      in
      Alcotest.(check (list int)) "covers ops exactly once"
        (List.init (Graph.length g) (fun i -> i))
        (List.sort compare all))
    [ 1; 2; 4; 8 ]

let test_pipeline_throughput_improves () =
  let g = graph () in
  let p1 = Elk_pipeline.Pipeline.plan (ctx ()) g ~stages:1 in
  let p4 = Elk_pipeline.Pipeline.plan (ctx ()) g ~stages:4 in
  (* Cutting the model into stages reduces the cycle time. *)
  Alcotest.(check bool) "smaller bottleneck" true
    (p4.Elk_pipeline.Pipeline.bottleneck < p1.Elk_pipeline.Pipeline.bottleneck);
  (* ... but per-request latency does not improve (paper §7: "latency of
     each serving request may increase if there are too many stages"). *)
  Alcotest.(check bool) "latency not better" true
    (p4.Elk_pipeline.Pipeline.latency >= p1.Elk_pipeline.Pipeline.latency *. 0.999)

let test_pipeline_core_conservation () =
  let chip_cores = (P.ctx_chip (ctx ())).Elk_arch.Arch.cores in
  let p = Elk_pipeline.Pipeline.plan (ctx ()) (graph ()) ~stages:4 in
  let used =
    List.fold_left (fun a st -> a + st.Elk_pipeline.Pipeline.cores) 0 p.Elk_pipeline.Pipeline.stages
  in
  (* Proportional rounding may over/under-shoot slightly; within 25%. *)
  Alcotest.(check bool) "about all cores used" true
    (used >= chip_cores * 3 / 4 && used <= chip_cores * 5 / 4)

let test_pipeline_swap_when_not_resident () =
  (* A width-factor-8 model's per-chip weights (~30 MB) cannot be
     stationary in one chip's ~6 MB of SRAM, so swap time must appear
     (§7: pipelined execution still needs HBM swaps), while the tiny
     factor-16 fixture fits and stays resident. *)
  let big =
    Elk.Sharding.shard_graph ~chips:4
      (Elk_model.Zoo.build
         (Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:8 ~layer_factor:10)
         (Elk_model.Zoo.Decode { batch = 32; ctx = 256 }))
  in
  let p = Elk_pipeline.Pipeline.plan (ctx ()) big ~stages:1 in
  let st = List.hd p.Elk_pipeline.Pipeline.stages in
  Alcotest.(check bool) "not resident" true (not st.Elk_pipeline.Pipeline.resident);
  Alcotest.(check bool) "pays swap" true (st.Elk_pipeline.Pipeline.swap_time > 0.);
  let small = Elk_pipeline.Pipeline.plan (ctx ()) (graph ()) ~stages:1 in
  Alcotest.(check bool) "small model resident" true
    (List.for_all (fun s -> s.Elk_pipeline.Pipeline.resident) small.Elk_pipeline.Pipeline.stages)

let test_pipeline_best_stage_count () =
  let k, p = Elk_pipeline.Pipeline.best_stage_count (ctx ()) (graph ()) in
  Alcotest.(check bool) "k in range" true (k >= 1 && k <= 8);
  List.iter
    (fun other ->
      let q = Elk_pipeline.Pipeline.plan (ctx ()) (graph ()) ~stages:other in
      Alcotest.(check bool) "best throughput" true
        (p.Elk_pipeline.Pipeline.throughput >= q.Elk_pipeline.Pipeline.throughput -. 1e-9))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_pipeline_rejects_bad_counts () =
  Alcotest.(check bool) "zero raises" true
    (try
       ignore (Elk_pipeline.Pipeline.plan (ctx ()) (graph ()) ~stages:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Energy                                                             *)
(* ------------------------------------------------------------------ *)

let test_energy_accounting () =
  let s = sched () in
  let r = Lazy.force sim_result in
  let e = Elk_energy.Energy.evaluate (ctx ()) s.Elk.Schedule.graph r in
  let open Elk_energy.Energy in
  Alcotest.(check bool) "all buckets positive" true
    (e.compute_j > 0. && e.sram_j > 0. && e.noc_j > 0. && e.hbm_j > 0. && e.static_j > 0.);
  Tu.check_rel "total = sum" ~tolerance:1e-9
    (e.compute_j +. e.sram_j +. e.noc_j +. e.hbm_j +. e.static_j)
    e.total_j;
  Tu.check_rel "edp" ~tolerance:1e-9 (e.total_j *. r.Elk_sim.Sim.total) e.edp

let test_energy_hbm_dominates_decode () =
  (* Decode moves every weight byte across HBM per token: HBM energy should
     dominate compute energy at these arithmetic intensities. *)
  let s = sched () in
  let r = Lazy.force sim_result in
  let e = Elk_energy.Energy.evaluate (ctx ()) s.Elk.Schedule.graph r in
  Alcotest.(check bool) "hbm > compute" true
    (e.Elk_energy.Energy.hbm_j > e.Elk_energy.Energy.compute_j)

let test_energy_faster_schedule_less_static () =
  let s = sched () in
  let r = Lazy.force sim_result in
  let c = ctx () in
  let basic = Elk_baselines.Baselines.basic_schedule c (graph ()) in
  let rb = Elk_sim.Sim.run c basic in
  let e_elk = Elk_energy.Energy.evaluate c s.Elk.Schedule.graph r in
  let e_basic = Elk_energy.Energy.evaluate c basic.Elk.Schedule.graph rb in
  Alcotest.(check bool) "elk spends less static energy" true
    (e_elk.Elk_energy.Energy.static_j <= e_basic.Elk_energy.Energy.static_j);
  Alcotest.(check bool) "elk has better EDP" true
    (e_elk.Elk_energy.Energy.edp <= e_basic.Elk_energy.Energy.edp)

let test_energy_params_scale () =
  let s = sched () in
  let r = Lazy.force sim_result in
  let p = Elk_energy.Energy.default_params in
  let doubled = { p with Elk_energy.Energy.pj_per_hbm_byte = 2. *. p.Elk_energy.Energy.pj_per_hbm_byte } in
  let e1 = Elk_energy.Energy.evaluate (ctx ()) s.Elk.Schedule.graph r in
  let e2 = Elk_energy.Energy.evaluate ~params:doubled (ctx ()) s.Elk.Schedule.graph r in
  Tu.check_rel "hbm energy doubles" ~tolerance:1e-9 (2. *. e1.Elk_energy.Energy.hbm_j)
    e2.Elk_energy.Energy.hbm_j

let suite =
  [
    ("codegen: kernel per op", `Quick, test_codegen_kernel_per_op);
    ("codegen: host matches program", `Quick, test_codegen_host_matches_program);
    ("codegen: kernel structure", `Quick, test_codegen_kernel_structure);
    ("codegen: deterministic", `Quick, test_codegen_deterministic);
    ("codegen: writes files", `Quick, test_codegen_write_to);
    ("trace: structure", `Quick, test_trace_structure);
    ("trace: event count", `Quick, test_trace_event_count);
    ("pipeline: single stage", `Quick, test_pipeline_single_stage);
    ("pipeline: covers all ops", `Quick, test_pipeline_partition_covers_all_ops);
    ("pipeline: throughput vs latency", `Quick, test_pipeline_throughput_improves);
    ("pipeline: core conservation", `Quick, test_pipeline_core_conservation);
    ("pipeline: swap when oversubscribed", `Quick, test_pipeline_swap_when_not_resident);
    ("pipeline: best stage count", `Quick, test_pipeline_best_stage_count);
    ("pipeline: rejects bad counts", `Quick, test_pipeline_rejects_bad_counts);
    ("energy: accounting", `Quick, test_energy_accounting);
    ("energy: hbm dominates decode", `Quick, test_energy_hbm_dominates_decode);
    ("energy: static tracks latency", `Quick, test_energy_faster_schedule_less_static);
    ("energy: parameter scaling", `Quick, test_energy_params_scale);
  ]

(* ------------------------------------------------------------------ *)
(* Planio                                                             *)
(* ------------------------------------------------------------------ *)

let test_planio_roundtrip () =
  let s = sched () in
  let text = Elk.Planio.export s in
  match Elk.Planio.import (ctx ()) text with
  | Error m -> Alcotest.fail m
  | Ok s' ->
      Alcotest.(check int) "same op count" (Elk.Schedule.num_ops s) (Elk.Schedule.num_ops s');
      Alcotest.(check bool) "same order" true (s.Elk.Schedule.order = s'.Elk.Schedule.order);
      Alcotest.(check bool) "same windows" true
        (s.Elk.Schedule.windows = s'.Elk.Schedule.windows);
      Array.iter2
        (fun (a : Elk.Schedule.op_entry) (b : Elk.Schedule.op_entry) ->
          Alcotest.(check bool) "same factors" true
            (a.Elk.Schedule.plan.P.factors = b.Elk.Schedule.plan.P.factors);
          Tu.check_rel "same frac" ~tolerance:1e-9 a.Elk.Schedule.popt.P.frac
            b.Elk.Schedule.popt.P.frac)
        s.Elk.Schedule.entries s'.Elk.Schedule.entries

let test_planio_same_timeline () =
  let s = sched () in
  match Elk.Planio.import (ctx ()) (Elk.Planio.export s) with
  | Error m -> Alcotest.fail m
  | Ok s' ->
      let t a = (Elk.Timeline.evaluate (ctx ()) a).Elk.Timeline.total in
      Tu.check_rel "identical makespan" ~tolerance:1e-9 (t s) (t s');
      let r a = (Elk_sim.Sim.run (ctx ()) a).Elk_sim.Sim.total in
      Tu.check_rel "identical simulation" ~tolerance:1e-9 (r s) (r s')

let test_planio_save_load () =
  let s = sched () in
  let path = Filename.temp_file "elkplan" ".txt" in
  Elk.Planio.save ~path s;
  (match Elk.Planio.load (ctx ()) ~path with
  | Ok s' -> Alcotest.(check bool) "loads" true (Elk.Schedule.num_ops s' > 0)
  | Error m -> Alcotest.fail m);
  Sys.remove path

let test_planio_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (Elk.Planio.import (ctx ()) "nonsense" |> Result.is_error);
  Alcotest.(check bool) "missing schedule" true
    (Elk.Planio.import (ctx ()) "elk-plan v1\ngraph g\nop softmax name=s rows=2 cols=2"
    |> Result.is_error);
  let s = sched () in
  let text = Elk.Planio.export s in
  (* Corrupt the windows line: no longer sums to N. *)
  let corrupted =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if String.length l > 8 && String.sub l 0 8 = "windows " then "windows 1,1"
           else l)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "invalid schedule rejected" true
    (Elk.Planio.import (ctx ()) corrupted |> Result.is_error)

let planio_suite =
  [
    ("planio: roundtrip", `Quick, test_planio_roundtrip);
    ("planio: identical timeline", `Quick, test_planio_same_timeline);
    ("planio: save/load", `Quick, test_planio_save_load);
    ("planio: rejects garbage", `Quick, test_planio_rejects_garbage);
  ]

let suite = suite @ planio_suite
