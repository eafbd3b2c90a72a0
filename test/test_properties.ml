(* Cross-cutting property tests over the allocator, scheduler, HBM model,
   graph serialization and the simulator's records, on randomized
   inputs. *)

open Elk_model
module P = Elk_partition.Partition
module Sim = Elk_sim.Sim
module Cp = Elk_sim.Critpath
module Mt = Elk_sim.Memtrace

let ctx () = Lazy.force Tu.default_ctx
let graph () = Lazy.force Tu.tiny_llama_chip_graph
let capacity () = Elk_arch.Arch.usable_sram_per_core (P.ctx_chip (ctx ()))

let qcheck_alloc_fits_any_capacity =
  Tu.qtest ~count:40 "alloc: result always fits the given capacity"
    QCheck2.Gen.(pair (int_bound 1000) (float_range 0.2 1.))
    (fun (nseed, cap_frac) ->
      let g = graph () in
      let c = ctx () in
      let node = Graph.get g (nseed mod Graph.length g) in
      let window =
        let w = Graph.get g ((nseed + 7) mod Graph.length g) in
        Elk.Alloc.window (Elk.Alloc.exec_frontier c node)
          [| Elk.Alloc.frontier c w (P.fastest_plan c w.Graph.op) |]
      in
      match Elk.Alloc.allocate ~capacity:(cap_frac *. capacity ()) ~len:1 window with
      | None -> true (* refusing is allowed; overflowing is not *)
      | Some r -> r.Elk.Alloc.total_space <= (cap_frac *. capacity ()) +. 1e-6)

let qcheck_alloc_monotone_in_capacity =
  Tu.qtest ~count:30 "alloc: more capacity never slows the chosen plan"
    QCheck2.Gen.(int_bound 1000)
    (fun nseed ->
      let g = graph () in
      let c = ctx () in
      let node = Graph.get g (nseed mod Graph.length g) in
      let window = Elk.Alloc.window (Elk.Alloc.exec_frontier c node) [||] in
      let run cap = Elk.Alloc.allocate ~capacity:cap ~len:0 window in
      match (run (0.4 *. capacity ()), run (capacity ())) with
      | Some small, Some big -> big.Elk.Alloc.exec_time <= small.Elk.Alloc.exec_time +. 1e-12
      | None, _ -> true
      | Some _, None -> false)

(* The allocator's one-pass packing verdict against the definition:
   bump-pack the sizes into address intervals and scan every pair with
   [Alloc.overlaps].  Sizes mix zeros, negatives, NaN and infinities, so
   both the by-construction path and the pairwise fallback are hit. *)
let qcheck_packing_verdict =
  let size =
    QCheck2.Gen.(
      oneof
        [
          pure 0.; pure Float.nan; pure Float.infinity; pure Float.neg_infinity;
          map float_of_int (int_range (-8) 8); float_range (-1e6) 1e6;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"alloc: packing verdict equals the pairwise scan"
       ~print:QCheck2.Print.(list float)
       QCheck2.Gen.(list_size (int_range 0 10) size)
       (fun sizes ->
         let _, rev =
           List.fold_left
             (fun (base, acc) a_size ->
               ( base +. a_size,
                 { Elk.Alloc.a_op = List.length acc; a_kind = Elk.Residency.Preload;
                   a_base = base; a_size }
                 :: acc ))
             (0., []) sizes
         in
         let rec pairwise = function
           | [] -> true
           | a :: tl -> (not (List.exists (Elk.Alloc.overlaps a) tl)) && pairwise tl
         in
         Elk.Alloc.packing_disjoint sizes = pairwise (List.rev rev)))

let bits = Int64.bits_of_float

(* The frontier step folds each plan's least preload overhead in one pass;
   the reference builds every plan's option list and takes its least
   overhead, as the step did before.  Fresh private memos on both
   topologies; extents include 1 and primes, and the three operator
   shapes cover weights, a KV cache and no HBM input at all. *)
let qcheck_exec_frontier_reference =
  let extent = QCheck2.Gen.(oneof [ oneofl [ 1; 2; 3; 5; 7; 13; 31; 61; 127 ]; int_range 1 256 ]) in
  let op =
    QCheck2.Gen.(
      oneof
        [
          map3 (fun m n k -> Elk_tensor.Opspec.matmul ~name:"mm" ~m ~n ~k ()) extent extent extent;
          map3
            (fun batch (m, n) k -> Elk_tensor.Opspec.batch_matmul ~name:"bmm" ~batch ~m ~n ~k ())
            extent (pair extent extent) extent;
          map2
            (fun a b -> Elk_tensor.Opspec.elementwise ~name:"ew" ~kind:"silu" ~shape:[ a; b ] ())
            extent extent;
        ])
  in
  Tu.qtest ~count:40 "partition: exec frontier equals the option-list reference"
    QCheck2.Gen.(pair bool op)
    (fun (mesh, op) ->
      let cost = P.ctx_cost (Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx)) in
      let c = P.make_ctx cost in
      let frontier = P.exec_frontier c op in
      let reference =
        Elk_util.Pareto.frontier
          (List.map
             (fun p ->
               let o =
                 List.fold_left
                   (fun a o -> Float.min a (P.preload_overhead o))
                   infinity (P.preload_options c op p)
               in
               let o = if o = infinity then 0. else o in
               { Elk_util.Pareto.x = p.P.exec_space; y = p.P.exec_time +. o; payload = p })
             (P.enumerate c op))
      in
      let key (pt : P.plan Elk_util.Pareto.point) =
        (bits pt.Elk_util.Pareto.x, bits pt.Elk_util.Pareto.y, pt.Elk_util.Pareto.payload.P.factors)
      in
      List.map key frontier = List.map key reference)

(* Every (operator, frontier plan) pair of the test graph, and those
   whose plan has more than one preload option: residents a search can
   step down. *)
let resident_pool =
  let pool mesh =
    lazy
      (let c = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
       let all =
         Array.to_list (Graph.nodes (graph ()))
         |> List.concat_map (fun (w : Graph.node) ->
                List.map
                  (fun pt -> Elk.Alloc.frontier c w pt.Elk_util.Pareto.payload)
                  (P.exec_frontier c w.Graph.op))
       in
       ( Array.of_list all,
         Array.of_list (List.filter (fun f -> Array.length (Elk.Alloc.options f) > 1) all) ))
  in
  let a2a = pool false and mesh = pool true in
  fun m -> Lazy.force (if m then mesh else a2a)

(* One induction step's searches share a window's scratch: each horizon's
   result must not depend on which horizons were searched before it.
   Over a zoo model's operators, with random resident plans (mostly ones
   with several preload options) and capacities drawn around the whole
   window's largest footprint, so that searches step down or fail,
   searching every prefix ascending, descending, and each in a window of
   its own gives the same results, floats by bits. *)
let qcheck_step_searches_independent =
  Tu.qtest ~count:200 "alloc: a step's searches do not depend on horizon order"
    QCheck2.Gen.(quad bool (int_bound 100_000) (int_range 0 16) (float_range 0.2 1.05))
    (fun (mesh, seed, residents, cap_frac) ->
      let c = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
      let g = graph () in
      let node = Graph.get g (seed mod Graph.length g) in
      let all, several = resident_pool mesh in
      let residents =
        Array.init residents (fun k ->
            let pick = (seed / 3) + (k * 7919) in
            if k mod 4 <> 3 && several <> [||] then several.(pick mod Array.length several)
            else all.(pick mod Array.length all))
      in
      let largest =
        Array.fold_left
          (fun a f ->
            let o = Elk.Alloc.options f in
            a +. o.(Array.length o - 1).P.preload_space)
          (List.fold_left (fun a pt -> Float.max a pt.Elk_util.Pareto.x) 0.
             (P.exec_frontier c node.Graph.op))
          residents
      in
      let capacity = cap_frac *. largest in
      let search w len =
        match Elk.Alloc.allocate_or_error ~capacity ~len w with
        | Error m -> Error m
        | Ok r ->
            Ok
              ( r.Elk.Alloc.exec_index,
                r.Elk.Alloc.exec_plan.P.factors,
                (r.Elk.Alloc.len, r.Elk.Alloc.steps),
                List.map bits
                  [ r.Elk.Alloc.exec_time; r.Elk.Alloc.objective; r.Elk.Alloc.total_space;
                    r.Elk.Alloc.contention ],
                List.map
                  (fun (op, o) -> (op, bits o.P.frac, bits o.P.preload_space))
                  (Elk.Alloc.chosen w r) )
      in
      let window rs = Elk.Alloc.window (Elk.Alloc.exec_frontier c node) rs in
      let w = window residents in
      let lens = List.init (Array.length residents + 1) Fun.id in
      let ascending = List.map (search w) lens in
      let descending = List.rev (List.map (search w) (List.rev lens)) in
      let alone = List.map (fun len -> search (window (Array.sub residents 0 len)) len) lens in
      ascending = descending && ascending = alone)

let qcheck_scheduler_respects_max_preload =
  Tu.qtest ~count:8 "scheduler: windows never exceed max_preload + floor growth"
    QCheck2.Gen.(int_range 1 12)
    (fun cap ->
      let s = Elk.Scheduler.run ~max_preload:cap (ctx ()) (graph ()) in
      (* Each horizon extends at most [cap] beyond its floor; since floors
         advance by at least 1 per op, windows are bounded by cap + 1. *)
      Array.for_all (fun w -> w <= cap + 1) (Elk.Scheduler.preload_numbers s))

let qcheck_hbm_larger_reads_not_faster =
  Tu.qtest ~count:40 "hbm: completion is monotone in request size"
    QCheck2.Gen.(pair (float_range 1e3 1e6) (float_range 1e3 1e6))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let dev () = Elk_hbm.Hbm.create Elk_hbm.Hbm.hbm3e_module in
      Elk_hbm.Hbm.read (dev ()) ~now:0. ~offset:0. ~bytes:lo
      <= Elk_hbm.Hbm.read (dev ()) ~now:0. ~offset:0. ~bytes:hi +. 1e-12)

let qcheck_gtext_random_roundtrip =
  Tu.qtest ~count:25 "gtext: random mixed graphs roundtrip"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Elk_util.Xrng.create seed in
      let b = Graph.builder ~name:"rr" in
      let n = 2 + Elk_util.Xrng.int rng 12 in
      for i = 0 to n - 1 do
        let op =
          match Elk_util.Xrng.int rng 5 with
          | 0 ->
              Elk_tensor.Opspec.matmul ~name:(Printf.sprintf "m%d" i)
                ~m:(1 + Elk_util.Xrng.int rng 64)
                ~n:(1 + Elk_util.Xrng.int rng 64)
                ~k:(1 + Elk_util.Xrng.int rng 64)
                ()
          | 1 ->
              Elk_tensor.Opspec.batch_matmul ~name:(Printf.sprintf "b%d" i)
                ~batch:(1 + Elk_util.Xrng.int rng 8)
                ~m:(1 + Elk_util.Xrng.int rng 8)
                ~n:(1 + Elk_util.Xrng.int rng 32)
                ~k:(1 + Elk_util.Xrng.int rng 32)
                ()
          | 2 ->
              Elk_tensor.Opspec.norm ~name:(Printf.sprintf "n%d" i)
                ~kind:(if Elk_util.Xrng.int rng 2 = 0 then "rmsnorm" else "layernorm")
                ~rows:(1 + Elk_util.Xrng.int rng 64)
                ~cols:(1 + Elk_util.Xrng.int rng 64)
                ()
          | 3 ->
              Elk_tensor.Opspec.rope ~name:(Printf.sprintf "r%d" i)
                ~rows:(1 + Elk_util.Xrng.int rng 64)
                ~cols:(1 + Elk_util.Xrng.int rng 64)
                ()
          | _ ->
              Elk_tensor.Opspec.elementwise ~name:(Printf.sprintf "e%d" i)
                ~arity:(1 + Elk_util.Xrng.int rng 2)
                ~kind:(Elk_util.Xrng.pick rng [ "add"; "mul"; "silu"; "gelu" ])
                ~shape:[ 1 + Elk_util.Xrng.int rng 32; 1 + Elk_util.Xrng.int rng 32 ]
                ()
        in
        let deps = if i = 0 then [] else [ Elk_util.Xrng.int rng i ] in
        ignore (Graph.add b ~deps ~role:(Printf.sprintf "r%d" i) op)
      done;
      let g = Graph.finish b in
      match Gtext.import (Gtext.export g) with
      | Ok g' -> Gtext.roundtrip_equal g g'
      | Error _ -> false)

let qcheck_planio_random_schedules =
  Tu.qtest ~count:6 "planio: scheduler outputs roundtrip through the plan file"
    QCheck2.Gen.(int_bound 3)
    (fun seed ->
      ignore seed;
      let s = Elk.Scheduler.run (ctx ()) (graph ()) in
      match Elk.Planio.import (ctx ()) (Elk.Planio.export s) with
      | Ok s' ->
          let t a = (Elk.Timeline.evaluate (ctx ()) a).Elk.Timeline.total in
          Float.abs (t s -. t s') < 1e-12
      | Error _ -> false)

let qcheck_sharding_flops_split =
  Tu.qtest ~count:20 "sharding: chips split FLOPs roughly evenly"
    QCheck2.Gen.(int_range 2 8)
    (fun chips ->
      let g = Lazy.force Tu.tiny_llama in
      let s = Elk.Sharding.shard_graph ~chips g in
      let ratio = Graph.total_flops g /. (Graph.total_flops s *. float_of_int chips) in
      (* Norm replication and ceil rounding leave some slack. *)
      ratio > 0.7 && ratio < 1.3)

(* The series derived from a run conserve volume: the HBM and NoC
   series carry exactly the bytes of the phases of positive length, and
   every core's busy series carries its compute + exchange buckets —
   which ties the two derivations together, so a phase that either one
   drops or counts twice shows up here. *)
let series_conserve_volume (s : Elk.Schedule.t) (r : Sim.result) =
  let module S = Elk_util.Series in
  let se = Sim.series s r in
  let close what a b =
    Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
    || QCheck2.Test.fail_reportf "%s: series total %.17g, expected %.17g" what a b
  in
  let sum f = Array.fold_left (fun a o -> a +. f o) 0. r.Sim.per_op in
  let over t0 t1 bytes = if t1 > t0 then bytes else 0. in
  close "HBM"
    (S.total se.Sim.hbm)
    (sum (fun o -> over o.Sim.pre_start o.Sim.hbm_end o.Sim.device_bytes))
  && close "NoC"
       (S.total se.Sim.noc)
       (sum (fun o ->
            over o.Sim.pre_start o.Sim.pre_end o.Sim.inject_bytes
            +. over o.Sim.exe_start o.Sim.dist_end o.Sim.dist_bytes
            +. over o.Sim.compute_end o.Sim.exe_end o.Sim.exchange_bytes))
  && List.for_all
       (fun c ->
         let b = r.Sim.perf.Elk_sim.Perfcore.per_core.(c) in
         close
           (Printf.sprintf "core %d busy" c)
           (S.total se.Sim.core_busy.(c))
           (b.Elk_sim.Perfcore.compute +. b.Elk_sim.Perfcore.exchange))
       (List.init (Array.length se.Sim.core_busy) Fun.id)

(* A seeded preload order: the a2a or the mesh test context, one to six
   adjacent swaps of the execution order, and a [max_preload] of 1-8. *)
let random_order =
  QCheck2.Gen.(triple bool (list_size (int_range 1 6) (int_bound 1000)) (int_range 1 8))

(* The test graph scheduled under a [random_order] draw. *)
let schedule_random_order (mesh, swaps, max_preload) =
  let ctx = Lazy.force (if mesh then Tu.mesh_ctx else Tu.default_ctx) in
  let g = graph () in
  let order = Array.init (Graph.length g) Fun.id in
  List.iter
    (fun k ->
      let i = k mod (Array.length order - 1) in
      let t = order.(i) in
      order.(i) <- order.(i + 1);
      order.(i + 1) <- t)
    swaps;
  (ctx, Elk.Scheduler.run ~order ~max_preload ctx g)

(* Preload orders other than the identity reach the simulator's
   records: the causal DAG's preload parents depend on which gate binds,
   and reordering is what changes that.  On every trajectory the four
   analyses' checks pass, every event but the root starts exactly when
   its causal parent ends (the parent is the gate's binding argument),
   each Distribute/Exchange event carries its op's per-phase port wait,
   the SRAM-residency record holds its op's phase times, and the derived
   series conserve volume. *)
let qcheck_recorders_on_random_orders =
  Tu.qtest ~count:20 "sim: recorder contracts hold on random preload orders" random_order
    (fun draw ->
      let ctx, s = schedule_random_order draw in
      let r = Sim.run ~events:true ~mem:true ~noc:true ctx s in
      let ok what = function
        | Ok () -> true
        | Error m -> QCheck2.Test.fail_reportf "%s: %s" what m
      in
      let events = Option.get r.Sim.events and mem = Option.get r.Sim.mem in
      ok "Perfcore" (Elk_sim.Perfcore.check r.Sim.perf ~total:r.Sim.total)
      && ok "Critpath" (Cp.check events ~total:r.Sim.total)
      && ok "Memprof" (Elk_analyze.Memprof.check (Elk_analyze.Memprof.analyze ctx s r))
      && ok "Nocprof" (Elk_analyze.Nocprof.check (Elk_analyze.Nocprof.analyze s r))
      && Array.for_all
           (fun (e : Cp.event) ->
             let o = r.Sim.per_op.(e.Cp.op) in
             (match e.Cp.parent with
             | Some p -> events.(p).Cp.t_end = e.Cp.t_start
             | None -> e.Cp.id = 0)
             &&
             match e.Cp.kind with
             | Cp.Distribute -> e.Cp.port_wait = o.Sim.dist_wait
             | Cp.Exchange -> e.Cp.port_wait = o.Sim.ex_wait
             | _ -> true)
           events
      && Array.for_all2
           (fun (m : Mt.op_mem) (o : Sim.op_trace) ->
             m.Mt.m_reserve = o.Sim.pre_start
             && m.Mt.m_deliver = o.Sim.pre_end
             && m.Mt.m_first_use = o.Sim.exe_start
             && m.Mt.m_tail_start = o.Sim.compute_end
             && m.Mt.m_release = o.Sim.exe_end)
           (Array.init (Mt.num_ops mem) (Mt.op_mem mem))
           r.Sim.per_op
      && series_conserve_volume s r)

(* The order search's pruning bound on reordered schedules: never above
   the full evaluation's total, compared with no tolerance, and equal to
   it when the timeline stalls nowhere. *)
let qcheck_lower_bound_on_random_orders =
  Tu.qtest ~count:50 "timeline: lower bound never above the total on random preload orders"
    random_order (fun draw ->
      let ctx, s = schedule_random_order draw in
      let tl = Elk.Timeline.evaluate ctx s and bound = Elk.Timeline.lower_bound ctx s in
      let total = tl.Elk.Timeline.total in
      if not (bound <= total) then
        QCheck2.Test.fail_reportf "bound %h above total %h" bound total;
      if tl.Elk.Timeline.bd.Elk.Timeline.interconnect = 0. && bound <> total then
        QCheck2.Test.fail_reportf "stall-free total %h but bound %h" total bound;
      true)

(* The interval measures behind [Timeline.account], against the
   pairwise list implementations they replaced (kept here as the
   reference): the union by a sort and merge of the whole list, the
   intersection as the union of every pairwise overlap.  Both must agree
   to the bit on lists of up to 200 intervals drawn on a small grid (so
   that touching and duplicate ends are common) with nested, touching,
   duplicate, zero-length and reversed intervals derived from them, and
   some -0, infinite and NaN ends. *)
module Pairwise = struct
  let union_measure intervals =
    let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
    let rec go acc cur = function
      | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
      | (a, b) :: rest -> (
          match cur with
          | None -> go acc (Some (a, b)) rest
          | Some (ca, cb) ->
              if a <= cb then go acc (Some (ca, Float.max cb b)) rest
              else go (acc +. (cb -. ca)) (Some (a, b)) rest)
    in
    go 0. None sorted

  let intersection_measure xs ys =
    let pieces =
      List.concat_map
        (fun (a, b) ->
          List.filter_map
            (fun (c, d) ->
              let lo = Float.max a c and hi = Float.min b d in
              if hi > lo then Some (lo, hi) else None)
            ys)
        xs
    in
    union_measure pieces
end

let gen_intervals =
  let open QCheck2.Gen in
  let point =
    frequency
      [
        (6, map float_of_int (int_range (-3) 30));
        (3, float_range (-3.) 30.);
        (1, oneofl [ -0.; infinity; neg_infinity; nan ]);
      ]
  in
  let derive ((a, b), shape) =
    match shape with
    | 0 -> [ (a, b) ]
    | 1 -> [ (a, b); (a, b) ]
    | 2 -> [ (a, b); (((3. *. a) +. b) /. 4., (a +. (3. *. b)) /. 4.) ]
    | 3 -> [ (a, b); (b, b +. 0.3) ]
    | 4 -> [ (a, a) ]
    | _ -> [ (b, a) ]
  in
  map (List.concat_map derive) (list_size (int_range 0 100) (pair (pair point point) (int_bound 5)))

let qcheck_interval_measures =
  let show l = String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%h, %h)" a b) l) in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"timeline: interval measures equal the pairwise reference"
       ~print:(fun (xs, ys) -> Printf.sprintf "xs = [%s]\nys = [%s]" (show xs) (show ys))
       QCheck2.Gen.(pair gen_intervals gen_intervals)
       (fun (xs, ys) ->
         let check name want got =
           if not (same want got) then
             QCheck2.Test.fail_reportf "%s: reference %h, got %h" name want got
         in
         check "union xs" (Pairwise.union_measure xs) (Elk.Timeline.union_measure xs);
         check "union ys" (Pairwise.union_measure ys) (Elk.Timeline.union_measure ys);
         check "intersection" (Pairwise.intersection_measure xs ys)
           (Elk.Timeline.intersection_measure xs ys);
         check "intersection, swapped" (Pairwise.intersection_measure ys xs)
           (Elk.Timeline.intersection_measure ys xs);
         true))

(* [Stats.percentiles] reads every rank off one [Float.compare] sort.
   The reference is [Stats.percentile] as it was before it became the
   one-rank case: a polymorphic-compare sort per rank.  Every rank must
   agree with it to the bit.  The lists hold 1-500 floats on a small
   grid (so duplicates are common) with -0, infinities and NaN; the
   ranks are random in [0, 100], plus the SLO report's three and both
   ends. *)
let reference_percentile p xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let qcheck_percentiles =
  let open QCheck2.Gen in
  let value =
    frequency
      [
        (6, map float_of_int (int_range (-5) 20));
        (3, float_range (-1e3) 1e3);
        (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan ]);
      ]
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"stats: percentiles equal the per-rank reference"
       ~print:(fun (xs, ps) ->
         let show l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
         Printf.sprintf "xs = [%s]\nps = [%s]" (show xs) (show ps))
       (pair (list_size (int_range 1 500) value) (list_size (int_range 1 6) (float_range 0. 100.)))
       (fun (xs, ps) ->
         let ps = Array.of_list (ps @ [ 0.; 50.; 90.; 99.; 100. ]) in
         let got = Elk_util.Stats.percentiles ps xs in
         Array.iteri
           (fun i p ->
             let want = reference_percentile p xs in
             if not (same want got.(i) && same want (Elk_util.Stats.percentile p xs)) then
               QCheck2.Test.fail_reportf "rank %h: reference %h, percentiles %h, percentile %h"
                 p want got.(i) (Elk_util.Stats.percentile p xs))
           ps;
         true))

let suite =
  [
    qcheck_alloc_fits_any_capacity;
    qcheck_alloc_monotone_in_capacity;
    qcheck_packing_verdict;
    qcheck_exec_frontier_reference;
    qcheck_step_searches_independent;
    qcheck_scheduler_respects_max_preload;
    qcheck_hbm_larger_reads_not_faster;
    qcheck_gtext_random_roundtrip;
    qcheck_planio_random_schedules;
    qcheck_sharding_flops_split;
    qcheck_recorders_on_random_orders;
    qcheck_lower_bound_on_random_orders;
    qcheck_interval_measures;
    qcheck_percentiles;
  ]
