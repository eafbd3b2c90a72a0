(* Determinism of the parallel branch-and-bound order search: whatever
   the pool size, compilation must pick the same plan byte for byte, and
   the branch-and-bound bounds must actually fire. *)

open Elk_model

let options = { Elk.Compile.default_options with max_orders = 8 }

(* The compile cache is disabled here: these tests compare full searches
   across jobs counts, and a whole-plan cache hit on the second compile
   would make the comparison vacuous. *)
let compile_with ~jobs ?(options = options) ctx ~pod g =
  Elk_util.Pool.set_jobs jobs;
  let was = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Elk_util.Pool.set_jobs 1;
      Elk.Compilecache.set_enabled was)
    (fun () -> Elk.Compile.compile ~options ctx ~pod g)

let fixtures () =
  let dit =
    Zoo.build
      (Zoo.scale Zoo.dit_xl ~factor:8 ~layer_factor:14)
      (Zoo.Decode { batch = 2; ctx = 1 })
  in
  let gemma =
    Zoo.build
      (Zoo.scale Zoo.gemma2_27b ~factor:16 ~layer_factor:23)
      (Zoo.Decode { batch = 8; ctx = 128 })
  in
  let opt =
    Zoo.build
      (Zoo.scale Zoo.opt_30b ~factor:8 ~layer_factor:24)
      (Zoo.Decode { batch = 8; ctx = 128 })
  in
  [
    ("llama/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, Lazy.force Tu.tiny_llama);
    ("llama/mesh", Lazy.force Tu.mesh_ctx, Tu.mesh_pod, Lazy.force Tu.tiny_llama);
    ("gemma/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, gemma);
    ("opt/mesh", Lazy.force Tu.mesh_ctx, Tu.mesh_pod, opt);
    ("dit/a2a", Lazy.force Tu.default_ctx, Tu.default_pod, dit);
  ]

let test_plan_byte_identical () =
  List.iter
    (fun (label, ctx, pod, g) ->
      let pod = Lazy.force pod in
      let seq = compile_with ~jobs:1 ctx ~pod g in
      let par = compile_with ~jobs:4 ctx ~pod g in
      Alcotest.(check string)
        (label ^ ": plan bytes")
        (Elk.Planio.export seq.Elk.Compile.schedule)
        (Elk.Planio.export par.Elk.Compile.schedule);
      Alcotest.(check int)
        (label ^ ": orders tried")
        seq.Elk.Compile.orders_tried par.Elk.Compile.orders_tried)
    (fixtures ())

let counter name =
  match List.assoc_opt name (Elk_obs.Metrics.counters ()) with
  | Some v -> v
  | None -> 0.

let test_pruning_fires () =
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Elk_obs.Control.disable ())
    (fun () ->
      let before = counter "elk_compile_orders_pruned_total" in
      (* A zero margin makes the cutoff the baseline's own lower bound:
         any candidate order that cannot even match the execution order's
         stall-free makespan is skipped or abandoned mid-induction.  The
         tiny fixture is too small for candidate orders to differ, so use
         a width-scaled two-layer model where reordering genuinely moves
         the stall-free makespan. *)
      let tight = { options with Elk.Compile.prune_margin = 0. } in
      let g =
        Zoo.build
          (Zoo.scale Zoo.llama2_13b ~factor:8 ~layer_factor:20)
          (Zoo.Decode { batch = 32; ctx = 256 })
      in
      let c =
        compile_with ~jobs:2 ~options:tight (Lazy.force Tu.default_ctx)
          ~pod:(Lazy.force Tu.default_pod) g
      in
      Alcotest.(check bool) "compiled" true (Elk.Compile.latency c > 0.);
      Alcotest.(check bool)
        "orders pruned" true
        (counter "elk_compile_orders_pruned_total" > before))

let test_negative_margin_disables_cutoff () =
  let loose = { options with Elk.Compile.prune_margin = -1. } in
  let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
  let c = compile_with ~jobs:2 ~options:loose ctx ~pod (Lazy.force Tu.tiny_llama) in
  let seq = compile_with ~jobs:1 ~options:loose ctx ~pod (Lazy.force Tu.tiny_llama) in
  Alcotest.(check string) "plan bytes without cutoff"
    (Elk.Planio.export seq.Elk.Compile.schedule)
    (Elk.Planio.export c.Elk.Compile.schedule)

let test_pruning_never_worsens_plan () =
  (* Branch-and-bound is sound: the winning makespan with pruning on
     equals the exhaustive search's (margin off). *)
  let ctx = Lazy.force Tu.default_ctx and pod = Lazy.force Tu.default_pod in
  let exhaustive =
    compile_with ~jobs:1
      ~options:{ options with Elk.Compile.prune_margin = -1. }
      ctx ~pod (Lazy.force Tu.tiny_llama)
  in
  let pruned =
    compile_with ~jobs:4
      ~options:{ options with Elk.Compile.prune_margin = 0.25 }
      ctx ~pod (Lazy.force Tu.tiny_llama)
  in
  (* The margin only prunes candidates whose stall-free bound exceeds the
     baseline's by >25%; on this model the winner sits well inside it. *)
  Tu.check_rel "same winning makespan" ~tolerance:0.25
    exhaustive.Elk.Compile.timeline.Elk.Timeline.total
    pruned.Elk.Compile.timeline.Elk.Timeline.total

let test_dse_full_sim_deterministic () =
  let env = { Elk_dse.Dse.pod = Lazy.force Tu.default_pod; ctx = Lazy.force Tu.default_ctx } in
  let g = Lazy.force Tu.tiny_llama in
  let eval jobs =
    Elk_util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Elk_util.Pool.set_jobs 1)
      (fun () ->
        Elk_dse.Dse.evaluate ~elk_options:options env g Elk_baselines.Baselines.Elk_full)
  in
  let seq = eval 1 and par = eval 4 in
  Tu.check_float "elk-full sim latency" seq.Elk_dse.Dse.latency par.Elk_dse.Dse.latency

(* The one order search is exact: Compile.compile's fold picks the
   argmin of the analytic total over every survivor of Compile.candidates
   (lowest index on ties) and skips exactly the survivors whose lower
   bound exceeds an earlier survivor's total; Dse's Elk-Full picks the
   simulated argmin of the same survivors.  Checked at jobs 1 and 4. *)
let test_one_search_exact () =
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  let was_cached = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Elk_util.Pool.set_jobs 1;
      Elk.Compilecache.set_enabled was_cached;
      if not was_enabled then Elk_obs.Control.disable ())
    (fun () ->
      let pruned () = counter "elk_compile_orders_pruned_total" in
      List.iter
        (fun (label, ctx, pod, g) ->
          let pod = Lazy.force pod in
          let run jobs =
            Elk_util.Pool.set_jobs jobs;
            let label = Printf.sprintf "%s, jobs %d" label jobs in
            let before = pruned () in
            let { Elk.Compile.survivors; tried } =
              Elk.Compile.candidates ~options ctx (Elk.Compile.chip_graph ctx ~pod g)
            in
            let search_pruned = pruned () -. before in
            let totals =
              List.map (fun (s, _) -> (Elk.Timeline.evaluate ctx s).Elk.Timeline.total) survivors
            in
            let best, _ =
              List.fold_left2
                (fun (best, bt) (s, _) t -> if t < bt then (Some s, t) else (best, bt))
                (None, infinity) survivors totals
            in
            let skipped, _ =
              List.fold_left2
                (fun (n, m) (_, lb) t -> ((if lb > m then n + 1 else n), Float.min m t))
                (0, infinity) survivors totals
            in
            let before = pruned () in
            let c = Elk.Compile.compile ~options ctx ~pod g in
            let compile_pruned = pruned () -. before in
            Alcotest.(check string)
              (label ^ ": plan is the timeline argmin")
              (Elk.Planio.export (Option.get best))
              (Elk.Planio.export c.Elk.Compile.schedule);
            Alcotest.(check int) (label ^ ": orders tried") tried c.Elk.Compile.orders_tried;
            Alcotest.(check (float 0.))
              (label ^ ": pruned = search drops + fold skips")
              (search_pruned +. float_of_int skipped)
              compile_pruned;
            let chips = pod.Elk_arch.Arch.chips in
            let sim_best =
              List.fold_left
                (fun m (s, _) -> Float.min m (Elk_sim.Sim.run ctx s).Elk_sim.Sim.total)
                infinity survivors
            in
            let e =
              Elk_dse.Dse.evaluate ~elk_options:options { Elk_dse.Dse.pod; ctx } g
                Elk_baselines.Baselines.Elk_full
            in
            Alcotest.(check (float 0.))
              (label ^ ": Elk-Full is the simulated argmin")
              (sim_best
              +. Elk.Sharding.allreduce_time pod (Elk.Sharding.shard_graph ~chips g))
              e.Elk_dse.Dse.latency;
            compile_pruned
          in
          let one = run 1 in
          Alcotest.(check (float 0.)) (label ^ ": pruned at jobs 1 and 4") one (run 4))
        (fixtures ()))

let test_evaluate_all_parallel () =
  let env = { Elk_dse.Dse.pod = Lazy.force Tu.default_pod; ctx = Lazy.force Tu.default_ctx } in
  let g = Lazy.force Tu.tiny_llama in
  let eval jobs =
    Elk_util.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Elk_util.Pool.set_jobs 1)
      (fun () -> Elk_dse.Dse.evaluate_all ~elk_options:options env g)
  in
  let seq = eval 1 and par = eval 4 in
  Alcotest.(check int) "all designs" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Elk_dse.Dse.eval) (b : Elk_dse.Dse.eval) ->
      Alcotest.(check bool) "design order" true (a.Elk_dse.Dse.design = b.Elk_dse.Dse.design);
      Tu.check_float
        (Elk_baselines.Baselines.name a.Elk_dse.Dse.design ^ " latency")
        a.Elk_dse.Dse.latency b.Elk_dse.Dse.latency)
    seq par

let suite =
  [
    Alcotest.test_case "plan byte-identical across jobs" `Quick test_plan_byte_identical;
    Alcotest.test_case "branch-and-bound pruning fires" `Quick test_pruning_fires;
    Alcotest.test_case "negative margin disables cutoff" `Quick
      test_negative_margin_disables_cutoff;
    Alcotest.test_case "pruning keeps the winner" `Quick test_pruning_never_worsens_plan;
    Alcotest.test_case "dse full-sim search deterministic" `Quick
      test_dse_full_sim_deterministic;
    Alcotest.test_case "evaluate_all parallel equals sequential" `Quick
      test_evaluate_all_parallel;
    Alcotest.test_case "one search: both scores fold the same survivors exactly" `Quick
      test_one_search_exact;
  ]
