(* Tests for the core Elk library: allocator, scheduler, schedule
   invariants, program generation, reordering, sharding and the analytic
   timeline. *)

open Elk_model
module P = Elk_partition.Partition

let ctx () = Lazy.force Tu.default_ctx
let graph () = Lazy.force Tu.tiny_llama_chip_graph
let sched () = Lazy.force Tu.tiny_schedule
let capacity () = Elk_arch.Arch.usable_sram_per_core (P.ctx_chip (ctx ()))

(* ------------------------------------------------------------------ *)
(* Alloc                                                              *)
(* ------------------------------------------------------------------ *)

(* A search of [node] executing beside [residents] (all of them). *)
let alloc_of ?(capacity = capacity ()) node residents =
  let residents = Array.of_list residents in
  let w = Elk.Alloc.window (Elk.Alloc.exec_frontier (ctx ()) node) residents in
  Elk.Alloc.allocate ~capacity ~len:(Array.length residents) w

let some_nodes k =
  let g = graph () in
  List.init k (fun i -> Graph.get g (i * 3 mod Graph.length g))

let fastest_frontiers c nodes =
  List.map (fun (n : Graph.node) -> Elk.Alloc.frontier c n (P.fastest_plan c n.Graph.op)) nodes

let test_alloc_empty_window () =
  let node = Graph.get (graph ()) 2 in
  match alloc_of node [] with
  | Some r ->
      Alcotest.(check bool) "fits" true (r.Elk.Alloc.total_space <= capacity ());
      Alcotest.(check bool) "positive time" true (r.Elk.Alloc.exec_time > 0.);
      Alcotest.(check int) "no window" 0 r.Elk.Alloc.len
  | None -> Alcotest.fail "single op must fit"

let test_alloc_fits_capacity () =
  let node = Graph.get (graph ()) 2 in
  let residents = fastest_frontiers (ctx ()) (some_nodes 4) in
  let w = Elk.Alloc.window (Elk.Alloc.exec_frontier (ctx ()) node) (Array.of_list residents) in
  match Elk.Alloc.allocate ~capacity:(capacity ()) ~len:4 w with
  | Some r ->
      Alcotest.(check bool) "fits" true (r.Elk.Alloc.total_space <= capacity ());
      Alcotest.(check (list int)) "window assignments"
        (List.map (fun (n : Graph.node) -> n.Graph.id) (some_nodes 4))
        (List.map fst (Elk.Alloc.chosen w r))
  | None -> Alcotest.fail "should fit"

let test_alloc_impossible_capacity () =
  let node = Graph.get (graph ()) 2 in
  Alcotest.(check bool) "tiny capacity fails" true (alloc_of ~capacity:16. node [] = None)

let test_alloc_shrinks_under_pressure () =
  (* With a big window, the executing op's chosen plan cannot be larger
     than with no window. *)
  let node = Graph.get (graph ()) 2 in
  let window = fastest_frontiers (ctx ()) (some_nodes 8) in
  match (alloc_of node [], alloc_of node window) with
  | Some free, Some tight ->
      Alcotest.(check bool) "no faster under pressure" true
        (tight.Elk.Alloc.exec_time >= free.Elk.Alloc.exec_time -. 1e-12)
  | _ -> Alcotest.fail "both should fit"

let test_alloc_objective_consistent () =
  let node = Graph.get (graph ()) 2 in
  match alloc_of node [] with
  | Some r ->
      Tu.check_rel "objective = exec + dists" ~tolerance:1e-9 r.Elk.Alloc.exec_time r.Elk.Alloc.objective
  | None -> Alcotest.fail "must fit"

(* The result's [exec_index] names the chosen plan in the executing
   operator's frontier, and [exec_options] resolves that plan's preload
   frontier, the options the partition memo returns. *)
let test_alloc_exec_index () =
  let c = ctx () in
  let node = Graph.get (graph ()) 2 in
  let exec = Elk.Alloc.exec_frontier c node in
  match Elk.Alloc.allocate ~capacity:(capacity ()) ~len:0 (Elk.Alloc.window exec [||]) with
  | Some r ->
      let i = r.Elk.Alloc.exec_index in
      Alcotest.(check bool) "index names the chosen plan" true
        ((List.nth (P.exec_frontier c node.Graph.op) i).Elk_util.Pareto.payload
        = r.Elk.Alloc.exec_plan);
      let f = Elk.Alloc.exec_options exec i in
      Alcotest.(check bool) "frontier of the chosen plan" true
        (Elk.Alloc.plan f = r.Elk.Alloc.exec_plan);
      Alcotest.(check bool) "options are the plan's" true
        (Array.to_list (Elk.Alloc.options f) = P.preload_options c node.Graph.op r.Elk.Alloc.exec_plan)
  | None -> Alcotest.fail "must fit"

let test_min_preload_space_positive_for_weights () =
  let g = graph () in
  let heavy = Graph.hbm_heavy_ids g in
  List.iter
    (fun id ->
      Alcotest.(check bool) "positive" true
        (Elk.Alloc.min_preload_space (ctx ()) (Graph.get g id) > 0.))
    heavy

(* ------------------------------------------------------------------ *)
(* Scheduler + Schedule                                               *)
(* ------------------------------------------------------------------ *)

let test_schedule_validates () =
  match Elk.Schedule.validate (sched ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_schedule_windows_sum () =
  let s = sched () in
  Alcotest.(check int) "sum = N"
    (Elk.Schedule.num_ops s)
    (Array.fold_left ( + ) 0 s.Elk.Schedule.windows)

let test_schedule_entries_indexed () =
  let s = sched () in
  Array.iteri
    (fun i e -> Alcotest.(check int) "node id" i e.Elk.Schedule.node_id)
    s.Elk.Schedule.entries

let test_schedule_positive_estimate () =
  Alcotest.(check bool) "positive" true ((sched ()).Elk.Schedule.est_total > 0.)

let test_scheduler_preloads_ahead () =
  (* The whole point of §4.2: at least one window must cover several
     preloads, otherwise there is no overlap at all. *)
  let pn = Elk.Scheduler.preload_numbers (sched ()) in
  Alcotest.(check bool) "some window > 1" true (Array.exists (fun p -> p > 1) pn)

let test_scheduler_entry_spaces_fit () =
  let s = sched () in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "exec space fits" true
        (e.Elk.Schedule.plan.P.exec_space <= capacity ()))
    s.Elk.Schedule.entries

let test_scheduler_rejects_bad_order () =
  let g = graph () in
  let n = Graph.length g in
  Alcotest.(check bool) "length" true
    (try
       ignore (Elk.Scheduler.run ~order:[| 0 |] (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true);
  let dup = Array.init n (fun _ -> 0) in
  Alcotest.(check bool) "not a permutation" true
    (try
       ignore (Elk.Scheduler.run ~order:dup (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true)

let test_scheduler_empty_graph () =
  let g = Graph.finish (Graph.builder ~name:"empty") in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Elk.Scheduler.run (ctx ()) g);
       false
     with Elk.Scheduler.Infeasible _ -> true)

let test_preload_step_mapping () =
  let s = sched () in
  let step = Elk.Schedule.preload_step s in
  let pos = Elk.Schedule.position_of s in
  Array.iteri
    (fun id p ->
      Alcotest.(check bool) "preloaded in time" true (step.(p) <= id))
    pos

(* ------------------------------------------------------------------ *)
(* Program                                                            *)
(* ------------------------------------------------------------------ *)

let test_program_valid () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  match Elk.Program.validate p ~n:(Elk.Schedule.num_ops s) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_program_length () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  Alcotest.(check int) "2N instructions"
    (2 * Elk.Schedule.num_ops s)
    (Array.length p.Elk.Program.instrs)

let test_program_preload_order_matches () =
  let s = sched () in
  let p = Elk.Program.of_schedule s in
  Alcotest.(check (list int)) "order preserved"
    (Array.to_list s.Elk.Schedule.order)
    (Elk.Program.preload_order p)

let test_program_validate_rejects () =
  let bad = { Elk.Program.instrs = [| Elk.Program.Execute 0; Elk.Program.Preload_async 0 |] } in
  Alcotest.(check bool) "exec before preload" true (Elk.Program.validate bad ~n:1 <> Ok ());
  let dup =
    {
      Elk.Program.instrs =
        [| Elk.Program.Preload_async 0; Elk.Program.Preload_async 0; Elk.Program.Execute 0 |];
    }
  in
  Alcotest.(check bool) "double preload" true (Elk.Program.validate dup ~n:1 <> Ok ());
  let missing = { Elk.Program.instrs = [| Elk.Program.Preload_async 0 |] } in
  Alcotest.(check bool) "never executed" true (Elk.Program.validate missing ~n:1 <> Ok ());
  let out_of_order =
    {
      Elk.Program.instrs =
        [|
          Elk.Program.Preload_async 0; Elk.Program.Preload_async 1; Elk.Program.Execute 1;
          Elk.Program.Execute 0;
        |];
    }
  in
  Alcotest.(check bool) "exec order" true (Elk.Program.validate out_of_order ~n:2 <> Ok ())

(* ------------------------------------------------------------------ *)
(* Timeline                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeline_basic_invariants () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  Alcotest.(check bool) "positive total" true (tl.Elk.Timeline.total > 0.);
  Array.iteri
    (fun i (ot : Elk.Timeline.op_times) ->
      Alcotest.(check bool) "pre interval" true (ot.Elk.Timeline.pre_end >= ot.Elk.Timeline.pre_start);
      Alcotest.(check bool) "exe interval" true (ot.Elk.Timeline.exe_end >= ot.Elk.Timeline.exe_start);
      Alcotest.(check bool) "preload before exec" true
        (ot.Elk.Timeline.pre_end <= ot.Elk.Timeline.exe_start +. 1e-12);
      if i > 0 then
        Alcotest.(check bool) "execs sequential" true
          (tl.Elk.Timeline.per_op.(i - 1).Elk.Timeline.exe_end <= ot.Elk.Timeline.exe_start +. 1e-12))
    tl.Elk.Timeline.per_op

let test_timeline_breakdown_sums () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  let b = tl.Elk.Timeline.bd in
  let covered =
    b.Elk.Timeline.preload_only +. b.Elk.Timeline.execute_only +. b.Elk.Timeline.overlapped
    +. b.Elk.Timeline.interconnect
  in
  Alcotest.(check bool) "covered <= total (idle possible)" true
    (covered <= tl.Elk.Timeline.total *. 1.001);
  Alcotest.(check bool) "all buckets nonneg" true
    (b.Elk.Timeline.preload_only >= 0. && b.Elk.Timeline.execute_only >= 0.
   && b.Elk.Timeline.overlapped >= 0. && b.Elk.Timeline.interconnect >= 0.)

let test_timeline_utilizations_sane () =
  let tl = Elk.Timeline.evaluate (ctx ()) (sched ()) in
  Alcotest.(check bool) "hbm in (0,1]" true
    (tl.Elk.Timeline.hbm_util > 0. && tl.Elk.Timeline.hbm_util <= 1.0001);
  Alcotest.(check bool) "noc in (0,1.2]" true
    (tl.Elk.Timeline.noc_util > 0. && tl.Elk.Timeline.noc_util <= 1.2);
  Alcotest.(check bool) "flops positive" true (tl.Elk.Timeline.achieved_flops > 0.)

let test_timeline_volumes_match_graph () =
  let s = sched () in
  let tl = Elk.Timeline.evaluate (ctx ()) s in
  (* Every byte of every HBM-resident tensor is read exactly once. *)
  Tu.check_rel "hbm volume" ~tolerance:0.02
    (Graph.total_hbm_bytes s.Elk.Schedule.graph)
    tl.Elk.Timeline.hbm_device_volume

(* The interval measures behind the Fig 18(a) breakdown, here and in
   the simulator. *)
let test_interval_measures () =
  let u = Elk.Timeline.union_measure and x = Elk.Timeline.intersection_measure in
  let eq name want got = Alcotest.(check (float 0.)) name want got in
  eq "no intervals" 0. (u []);
  eq "empty intervals" 0. (u [ (1., 1.); (3., 2.) ]);
  eq "touching count once" 3. (u [ (0., 1.); (1., 3.) ]);
  eq "nested" 4. (u [ (0., 4.); (1., 2.) ]);
  eq "disjoint" 3. (u [ (5., 6.); (0., 2.) ]);
  eq "against no intervals" 0. (x [ (0., 4.) ] []);
  eq "against an empty interval" 0. (x [ (0., 4.) ] [ (2., 2.) ]);
  eq "touching share nothing" 0. (x [ (0., 1.) ] [ (1., 2.) ]);
  eq "nested" 1. (x [ (0., 4.) ] [ (1., 2.) ]);
  eq "disjoint" 0. (x [ (0., 1.) ] [ (2., 3.) ]);
  eq "overlaps within a list count once" 2.
    (x [ (0., 3.); (1., 4.) ] [ (2., 5.); (2., 3.) ])

(* ------------------------------------------------------------------ *)
(* Reorder                                                            *)
(* ------------------------------------------------------------------ *)

let test_kendall_tau () =
  Alcotest.(check int) "identity" 0 (Elk.Reorder.kendall_tau [ 1; 2; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check int) "swap" 1 (Elk.Reorder.kendall_tau [ 2; 1; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check int) "reverse" 3 (Elk.Reorder.kendall_tau [ 3; 2; 1 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "not perm raises" true
    (try
       ignore (Elk.Reorder.kendall_tau [ 1; 2 ] [ 1; 3 ]);
       false
     with Invalid_argument _ -> true)

let test_valid_suffix_orders_unconstrained () =
  (* With infinite capacity all H! orders are valid. *)
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:1e9 ~items () in
  Alcotest.(check int) "3! orders" 6 (List.length orders);
  List.iter
    (fun o -> Alcotest.(check (list int)) "permutation" [ 0; 1; 2 ] (List.sort compare o))
    orders

let test_valid_suffix_orders_capacity_prunes () =
  (* Fig 14's rule: with capacity for only 2 items, delaying the earliest
     op to the last preload slot would co-locate all 3. *)
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:2. ~items () in
  Alcotest.(check bool) "fewer than 6" true (List.length orders < 6);
  (* The identity order must always survive. *)
  Alcotest.(check bool) "identity valid" true (List.mem [ 0; 1; 2 ] orders);
  (* Placing op0 last means ops 1,2 preload before it: 3 co-resident. *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "op0 not last" true (List.nth o 2 <> 0))
    orders

let test_valid_suffix_orders_tight_capacity () =
  let items = [ (0, 1.); (1, 1.); (2, 1.) ] in
  let orders = Elk.Reorder.valid_suffix_orders ~capacity:1. ~items () in
  Alcotest.(check (list (list int))) "only identity" [ [ 0; 1; 2 ] ] orders

let test_candidate_orders_contain_identity () =
  let g = graph () in
  let orders = Elk.Reorder.candidate_orders (ctx ()) g in
  Alcotest.(check bool) "nonempty" true (orders <> []);
  let identity = Array.init (Graph.length g) (fun i -> i) in
  Alcotest.(check bool) "identity first" true (List.hd orders = identity)

let test_candidate_orders_are_permutations () =
  let g = graph () in
  let n = Graph.length g in
  List.iter
    (fun o ->
      Alcotest.(check (list int)) "permutation"
        (List.init n (fun i -> i))
        (List.sort compare (Array.to_list o)))
    (Elk.Reorder.candidate_orders (ctx ()) g)

let test_candidate_orders_only_reorder_heavy () =
  let g = graph () in
  let heavy = Graph.hbm_heavy_ids g in
  List.iter
    (fun o ->
      Array.iteri
        (fun slot id ->
          if slot <> id then begin
            Alcotest.(check bool) "moved op is heavy" true (List.mem id heavy);
            Alcotest.(check bool) "slot belongs to a heavy op" true (List.mem slot heavy)
          end)
        o)
    (Elk.Reorder.candidate_orders (ctx ()) g)

let test_template_layer_heavy () =
  let g = graph () in
  let tpl = Elk.Reorder.template_layer_heavy g in
  Alcotest.(check bool) "nonempty on llama" true (tpl <> []);
  let layers =
    List.filter_map (fun id -> (Graph.get g id).Graph.layer) tpl |> List.sort_uniq compare
  in
  Alcotest.(check int) "single layer" 1 (List.length layers)

let test_scheduler_accepts_reordered () =
  let g = graph () in
  let c = ctx () in
  let orders = Elk.Reorder.candidate_orders c g in
  let tried = ref 0 in
  List.iteri
    (fun i o ->
      if i < 4 then
        try
          let s = Elk.Scheduler.run ~order:o c g in
          incr tried;
          match Elk.Schedule.validate s with
          | Ok () -> ()
          | Error m -> Alcotest.fail m
        with Elk.Scheduler.Infeasible _ -> ())
    orders;
  Alcotest.(check bool) "at least identity scheduled" true (!tried >= 1)

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)
(* ------------------------------------------------------------------ *)

let test_shard_identity_for_one_chip () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:1 g in
  Alcotest.(check bool) "same graph" true (s == g)

let test_shard_reduces_hbm () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Tu.check_rel "~1/4 of the bytes" ~tolerance:0.15
    (Graph.total_hbm_bytes g /. 4.)
    (Graph.total_hbm_bytes s)

let test_shard_preserves_structure () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Alcotest.(check int) "same op count" (Graph.length g) (Graph.length s);
  Array.iter2
    (fun (a : Graph.node) (b : Graph.node) ->
      Alcotest.(check string) "role" a.Graph.role b.Graph.role;
      Alcotest.(check (list int)) "deps" a.Graph.deps b.Graph.deps)
    (Graph.nodes g) (Graph.nodes s)

let test_shard_replicates_norms () =
  let g = Lazy.force Tu.tiny_llama in
  let s = Elk.Sharding.shard_graph ~chips:4 g in
  Array.iter2
    (fun (a : Graph.node) (b : Graph.node) ->
      if a.Graph.role = "attn_norm" then
        Alcotest.(check bool) "norm unsharded" true
          (a.Graph.op.Elk_tensor.Opspec.iter = b.Graph.op.Elk_tensor.Opspec.iter))
    (Graph.nodes g) (Graph.nodes s)

let test_shard_matmul_n_dim () =
  let op = Elk_tensor.Opspec.matmul ~name:"m" ~m:8 ~n:64 ~k:32 () in
  let s = Elk.Sharding.shard_op ~chips:4 ~role:"q_proj" op in
  Alcotest.(check int) "n quartered" 16 s.Elk_tensor.Opspec.iter.(1);
  Alcotest.(check int) "m kept" 8 s.Elk_tensor.Opspec.iter.(0);
  Alcotest.(check int) "k kept" 32 s.Elk_tensor.Opspec.iter.(2)

let test_shard_small_dim_not_split () =
  let op = Elk_tensor.Opspec.matmul ~name:"m" ~m:8 ~n:2 ~k:32 () in
  let s = Elk.Sharding.shard_op ~chips:4 ~role:"q_proj" op in
  Alcotest.(check int) "n too small to shard" 2 s.Elk_tensor.Opspec.iter.(1)

let test_allreduce_volume () =
  let g = Lazy.force Tu.tiny_llama in
  let v = Elk.Sharding.allreduce_volume g in
  Alcotest.(check bool) "positive" true (v > 0.);
  (* Two reduced projections per layer + lm_head. *)
  let pod = Lazy.force Tu.default_pod in
  Alcotest.(check bool) "time positive" true (Elk.Sharding.allreduce_time pod g > 0.);
  let one = { pod with Elk_arch.Arch.chips = 1 } in
  Tu.check_float "single chip free" 0. (Elk.Sharding.allreduce_time one g)

let suite =
  [
    ("alloc: empty window", `Quick, test_alloc_empty_window);
    ("alloc: fits capacity", `Quick, test_alloc_fits_capacity);
    ("alloc: impossible capacity", `Quick, test_alloc_impossible_capacity);
    ("alloc: pressure slows exec", `Quick, test_alloc_shrinks_under_pressure);
    ("alloc: objective", `Quick, test_alloc_objective_consistent);
    ("alloc: exec frontier index", `Quick, test_alloc_exec_index);
    ("alloc: min preload space", `Quick, test_min_preload_space_positive_for_weights);
    ("scheduler: schedule validates", `Quick, test_schedule_validates);
    ("scheduler: windows sum", `Quick, test_schedule_windows_sum);
    ("scheduler: entries indexed", `Quick, test_schedule_entries_indexed);
    ("scheduler: positive estimate", `Quick, test_schedule_positive_estimate);
    ("scheduler: preloads ahead", `Quick, test_scheduler_preloads_ahead);
    ("scheduler: exec spaces fit", `Quick, test_scheduler_entry_spaces_fit);
    ("scheduler: rejects bad orders", `Quick, test_scheduler_rejects_bad_order);
    ("scheduler: empty graph", `Quick, test_scheduler_empty_graph);
    ("schedule: preload-step mapping", `Quick, test_preload_step_mapping);
    ("program: validates", `Quick, test_program_valid);
    ("program: length 2N", `Quick, test_program_length);
    ("program: preload order", `Quick, test_program_preload_order_matches);
    ("program: validate rejects", `Quick, test_program_validate_rejects);
    ("timeline: invariants", `Quick, test_timeline_basic_invariants);
    ("timeline: breakdown", `Quick, test_timeline_breakdown_sums);
    ("timeline: utilizations", `Quick, test_timeline_utilizations_sane);
    ("timeline: hbm volume conserved", `Quick, test_timeline_volumes_match_graph);
    ("timeline: interval measures", `Quick, test_interval_measures);
    ("reorder: kendall tau", `Quick, test_kendall_tau);
    ("reorder: suffix orders free", `Quick, test_valid_suffix_orders_unconstrained);
    ("reorder: capacity prunes", `Quick, test_valid_suffix_orders_capacity_prunes);
    ("reorder: tight capacity", `Quick, test_valid_suffix_orders_tight_capacity);
    ("reorder: identity first", `Quick, test_candidate_orders_contain_identity);
    ("reorder: permutations", `Quick, test_candidate_orders_are_permutations);
    ("reorder: only heavy move", `Quick, test_candidate_orders_only_reorder_heavy);
    ("reorder: template layer", `Quick, test_template_layer_heavy);
    ("reorder: scheduler accepts", `Quick, test_scheduler_accepts_reordered);
    ("sharding: single chip identity", `Quick, test_shard_identity_for_one_chip);
    ("sharding: reduces hbm", `Quick, test_shard_reduces_hbm);
    ("sharding: preserves structure", `Quick, test_shard_preserves_structure);
    ("sharding: replicates norms", `Quick, test_shard_replicates_norms);
    ("sharding: matmul n dim", `Quick, test_shard_matmul_n_dim);
    ("sharding: small dims kept", `Quick, test_shard_small_dim_not_split);
    ("sharding: allreduce", `Quick, test_allreduce_volume);
  ]
