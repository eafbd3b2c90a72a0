(* perfbench: one steady benchmark of the Elk pipeline, end to end and
   layer by layer.

     bash perfbench/run.sh --workload zoo-compile --seed 7 --seconds 10 --trace 0

   Each workload is a closed loop — one client runs one round after
   another — in its own process on one domain ([Pool.set_jobs 1]), with
   [Compile.default_options] and the elk_verify compile gate armed, i.e.
   the compiler as the [elk] binary ships it.

   - zoo-compile: compile "the 12 plans" (the six Zoo models on the
     all-to-all and the mesh pod, at bench/main.ml's scaled evaluation
     config) cold: before each compile, outside the timed region, the
     compile caches are reset and the compile gets a new partition
     context.  Partition enumeration and scheduler induction do almost
     all the work; the simulator never runs.
   - serve-warm: steady-state [elk serve].  Set-up serves four fixed
     200-request Poisson streams once cold; a round serves them again from
     the warm compile cache, so the cache only hits, the verifier re-runs
     on every hit, [Sim.run] runs without recorders and the scheduler does
     nothing.  The seed orders the streams.
   - zoo-observe: the [elk analyze|critpath|mem|noc] sweep.  Set-up
     compiles the 12 plans; a round simulates each plain and with every
     recorder, then runs the Perfcore, Critpath, Memprof and Nocprof
     analyses and checks.

   --trace 0 measures the end-to-end metrics with Elk_obs off:
   - round_best_s, the host wall time of a round with the least
     interference from the host's other tenants: each item of a round (a
     plan or a stream) is timed apart, the rounds take turns on the
     process's CPUs, and each item's fastest run counts (see [best_round]);
     the median round and its tail are printed next to it;
   - setup_s, the host wall time of the median set-up (zoo-compile sets
     up five times; the multi-second set-ups of the other two run once);
   - peak_heap_mb, the GC's top heap once the minimum number of rounds
     is done;
   - roofline_frac (geomean of Ideal over Elk-Full simulated latency) and
     model_gap (mean |Sim.run - Timeline| / Sim.run) over the plans the
     workload runs: the 12 plans, or three llama2-13b serving plans of a
     full batch for serve-warm.
   fail_frac is the result line's failed / attempted.  --trace 1
   alternates those rounds with traced ones: every public layer call is
   wrapped in an Elk_obs span opened here (zoo-compile replays
   [Compile.compile]'s steps from their public functions), layers reached
   only through another layer are read from the spans and counters the
   library already emits, and the per-layer self times and counts are
   reported with the layer table of layers.ml.

   Every output is checked; a failed check counts in [failed] and makes
   the process exit 1.  The last stdout line is the result JSON. *)

open Elk_model
module B = Elk_baselines.Baselines
module D = Elk_dse.Dse
module P = Elk_partition.Partition
module C = Elk.Compile
module Cc = Elk.Compilecache
module Sim = Elk_sim.Sim
module Span = Elk_obs.Span
module Metrics = Elk_obs.Metrics
module Verify = Elk_verify.Verify
module Frontend = Elk_serve.Frontend
module Slo = Elk_serve.Slo
module Stats = Elk_util.Stats

(* Unboxed and allocation-free, unlike [Elk_obs.Control.now], whose
   clamping allocates only when the clock moved: rounds must allocate the
   same number of words every time. *)
let now = Unix.gettimeofday
let span = Span.with_span
let median xs = Stats.percentile 50. xs

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let expect what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

let expect_ok what = function
  | Ok () -> expect what true
  | Error m -> expect (what ^ ": " ^ m) false

(* A compile is one operation; [Infeasible] and [Rejected] fail it. *)
let checked_compile label f =
  match f () with
  | c ->
      expect label true;
      Some c
  | exception Elk.Scheduler.Infeasible m ->
      expect (label ^ ": infeasible: " ^ m) false;
      None
  | exception C.Rejected m ->
      expect (label ^ ": rejected by the verifier: " ^ m) false;
      None

(* A count that must read the same in every round. *)
let exact name = function
  | [] -> 0.
  | v :: rest ->
      List.iter
        (fun w ->
          expect (Printf.sprintf "%s repeats exactly (%.17g vs %.17g)" name v w) (w = v))
        rest;
      v

(* Minor-heap words allocated inside [timed], over the whole run. *)
let timed_words = ref 0.

(* [timed f] runs [f] and returns its result with its wall time, adding
   the words it allocates to [timed_words]. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let secs = now () -. t0 in
  timed_words := !timed_words +. (Gc.minor_words () -. w0);
  (x, secs)

(* ------------------------------------------------------------------ *)
(* The 12 plans                                                       *)
(* ------------------------------------------------------------------ *)

(* bench/main.ml's scaled evaluation config: width / 8 with its per-model
   depth factors (mixtral-8x7b has none there and uses / 10), decode at
   batch 32 and ctx 256, DiT-XL at batch 2. *)
let width_factor = 8
let ctx_len = 2048 / width_factor

let layer_factor (cfg : Zoo.config) =
  match cfg.Zoo.cfg_name with
  | "llama2-13b" -> 10
  | "gemma2-27b" -> 11
  | "opt-30b" -> 12
  | "llama2-70b" -> 20
  | "dit-xl" -> 7
  | _ -> 10

let scaled cfg = Zoo.scale cfg ~factor:width_factor ~layer_factor:(layer_factor cfg)

let zoo_graph cfg =
  let cfg = scaled cfg in
  let batch = if cfg.Zoo.family = Zoo.Dit then 2 else 32 in
  Zoo.build cfg (Zoo.Decode { batch; ctx = ctx_len })

type plan_input = { label : string; env : D.env; graph : Graph.t }

(* Cost-model training and graph generation; the seed only fixes the
   order a round visits the plans in. *)
let zoo_inputs ~seed =
  let graphs = List.map zoo_graph Zoo.all in
  List.concat_map
    (fun (tname, topology) ->
      let env = D.env ~topology () in
      List.map (fun g -> { label = Graph.name g ^ "@" ^ tname; env; graph = g }) graphs)
    [ ("a2a", `All_to_all); ("mesh", `Mesh) ]
  |> Elk_util.Xrng.shuffle (Elk_util.Xrng.create seed)

(* Plan quality: Ideal latency over Elk-Full's simulated latency (both
   including the all-reduce), and the analytic timeline's miss against
   the simulator. *)
let plan_quality env graph (c : C.t) ~sim_total =
  let ideal = (B.run env.D.ctx ~pod:env.D.pod graph B.Ideal).B.latency in
  ( ideal /. (sim_total +. c.C.allreduce),
    Float.abs (sim_total -. c.C.timeline.Elk.Timeline.total) /. sim_total )

(* Over (label, quality) pairs, summed in label order: the seed, which
   orders the rounds, must not reorder the floating-point sums. *)
let quality_metrics labelled =
  let qs = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) labelled) in
  [
    ("roofline_frac", Stats.geomean (List.map fst qs), "frac");
    ("model_gap", Stats.mean (List.map snd qs), "frac");
  ]

let plain_sim ctx s = Sim.run ~events:false ~mem:false ~noc:false ctx s

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* Compile-cache hits and misses during [f ()].  A round that resets the
   caches reads them around each compile: [Compilecache.reset] zeroes
   the counters. *)
let with_cache_counts f =
  let s0 = Cc.stats () in
  let x = f () in
  let s1 = Cc.stats () in
  (x, (s1.Cc.plan_hits - s0.Cc.plan_hits, s1.Cc.plan_misses - s0.Cc.plan_misses))

let cache_metrics (hits, misses) =
  [ ("compilecache.hits", float_of_int hits); ("compilecache.misses", float_of_int misses) ]

(* What a round measured: the timed seconds of each of its items (a plan
   or a request stream; cache resets and output checks are not timed),
   and the per-round numbers only the workload can take. *)
type round = { items : (string * float) list; extra : (string * float) list }

(* What a set-up hands the run loop. *)
type runner = {
  round : unit -> round;
  traced_round : unit -> round;
  quality : unit -> (string * float * string) list;
      (** end-to-end plan-quality metrics, computed once after the rounds *)
  trace_extras : unit -> (string * float) list;
      (** per-layer numbers measured apart from the rounds (trace runs) *)
  costmodel_chips : Elk_arch.Arch.chip list;
}

type workload = {
  name : string;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  min_rounds : int;  (** untraced rounds per run, at the least *)
  warm_up : bool;  (** run a discarded untraced round first *)
  setup : seed:int -> runner;
}

(* ---- zoo-compile ---------------------------------------------------- *)

(* Fill the partition memos for every operator of [g] — execution
   frontiers and the preload options of each frontier plan — so that
   enumeration is timed apart from scheduler induction. *)
let enumerate ctx g =
  Array.iter
    (fun (node : Graph.node) ->
      List.iter
        (fun (pt : P.plan Elk_util.Pareto.point) ->
          ignore (P.preload_options ctx node.Graph.op pt.Elk_util.Pareto.payload))
        (P.exec_frontier ctx node.Graph.op))
    (Graph.nodes g)

type replay = { schedule : Elk.Schedule.t; orders : int; won_by_reorder : bool }

(* A context as cold as a new process's.  [Compilecache.reset] clears only
   the partition memos still in Partition's registry, and it empties the
   registry, so a context made before an earlier reset would keep its
   memos warm: every compile gets a new context, made after the reset and
   outside the timed region.  It has the set-up context's fingerprint, so
   cache keys and plans do not change. *)
let cold_ctx (inp : plan_input) =
  Cc.reset ();
  let ctx = P.make_ctx (P.ctx_cost inp.env.D.ctx) in
  expect (inp.label ^ ": partition memos cold before the compile") (P.memo_sizes ctx = (0, 0));
  ctx

(* [Compile.compile]'s cold path (no compile cache, no fusion) rebuilt
   from the public functions of each layer, each call in a span. *)
let replay_compile ctx (inp : plan_input) =
  let o = C.default_options in
  let pod = inp.env.D.pod in
  let sharded =
    span "sharding.shard" (fun () ->
        Elk.Sharding.shard_graph ~chips:pod.Elk_arch.Arch.chips inp.graph)
  in
  span "partition.enum" (fun () -> enumerate ctx sharded);
  let cg = span "sharding.split" (fun () -> Elk.Opsplit.split_graph ctx sharded) in
  span "partition.enum" (fun () -> enumerate ctx cg);
  let orders =
    span "reorder.orders" (fun () ->
        Elk.Reorder.candidate_orders ~max_orders:o.C.max_orders
          ~max_edit_distance:o.C.max_edit_distance ctx cg)
  in
  let schedule ?cutoff order =
    match
      span "scheduler.run" (fun () ->
          Elk.Scheduler.run ~order ~max_preload:o.C.max_preload ?cutoff ctx cg)
    with
    | s -> Some s
    | exception (Elk.Scheduler.Infeasible _ | Elk.Scheduler.Pruned) -> None
  in
  let evaluate s = span "timeline.evaluate" (fun () -> Elk.Timeline.evaluate ctx s) in
  let lower_bound s = span "timeline.lower_bound" (fun () -> Elk.Timeline.lower_bound ctx s) in
  let total (_, tl, _) = tl.Elk.Timeline.total in
  let base =
    match orders with
    | [] -> None
    | first :: _ -> Option.map (fun s -> (s, evaluate s, 0)) (schedule first)
  in
  let cutoff =
    match base with
    | Some (s, _, _) when o.C.prune_margin >= 0. -> lower_bound s *. (1. +. o.C.prune_margin)
    | _ -> infinity
  in
  let best = ref base in
  let incumbent = ref (match base with Some b -> total b | None -> infinity) in
  List.iteri
    (fun i order ->
      match schedule ~cutoff order with
      | Some s when lower_bound s <= Float.min cutoff !incumbent ->
          let c = (s, evaluate s, i + 1) in
          incumbent := Float.min !incumbent (total c);
          (match !best with Some b when total b <= total c -> () | _ -> best := Some c)
      | Some _ | None -> ())
    (match orders with [] -> [] | _ :: rest -> rest);
  let s, won =
    match !best with
    | Some (s, _, i) -> (s, i > 0)
    | None ->
        (* Execution order, to surface the scheduler's error. *)
        (span "scheduler.run" (fun () -> Elk.Scheduler.run ctx cg), false)
  in
  let program = span "program.lower" (fun () -> Elk.Program.of_schedule s) in
  ignore (span "sharding.allreduce" (fun () -> Elk.Sharding.allreduce_time pod cg));
  (match span "verify.check" (fun () -> Verify.check ctx s program) with
  | Ok () -> ()
  | Error m -> raise (C.Rejected m));
  { schedule = s; orders = List.length orders; won_by_reorder = won }

let zoo_compile ~seed =
  let inputs = zoo_inputs ~seed in
  (* Plans of the first compile of each input: later rounds and the
     traced replay must export byte-identical plans. *)
  let reference : (string, C.t * string) Hashtbl.t = Hashtbl.create 16 in
  let check_plan inp schedule =
    let exported = Elk.Planio.export schedule in
    match Hashtbl.find_opt reference inp.label with
    | Some (_, first) ->
        expect (inp.label ^ ": plan identical to Compile.compile's") (exported = first)
    | None -> ()
  in
  let round () =
    let items, counts =
      List.fold_left
        (fun (items, (hits, misses)) inp ->
          let ctx = cold_ctx inp in
          let (c, secs), (h, m) =
            with_cache_counts (fun () ->
                timed (fun () ->
                    checked_compile ("compile " ^ inp.label) (fun () ->
                        C.compile ctx ~pod:inp.env.D.pod inp.graph)))
          in
          Option.iter
            (fun (c : C.t) ->
              if Hashtbl.mem reference inp.label then check_plan inp c.C.schedule
              else Hashtbl.replace reference inp.label (c, Elk.Planio.export c.C.schedule))
            c;
          ((inp.label, secs) :: items, (hits + h, misses + m)))
        ([], (0, 0)) inputs
    in
    { items; extra = cache_metrics counts }
  in
  let traced_round () =
    let orders = ref 0 and wins = ref 0 and memo = ref 0 in
    let items =
      List.map
        (fun inp ->
          let ctx = cold_ctx inp in
          let r, secs =
            timed (fun () ->
                checked_compile ("replay " ^ inp.label) (fun () -> replay_compile ctx inp))
          in
          Option.iter
            (fun r ->
              check_plan inp r.schedule;
              orders := !orders + r.orders;
              if r.won_by_reorder then incr wins;
              let enum, popts = P.memo_sizes ctx in
              memo := !memo + enum + popts)
            r;
          (inp.label, secs))
        inputs
    in
    {
      items;
      extra =
        [
          ("reorder.orders", float_of_int !orders);
          ("reorder.win_frac", float_of_int !wins /. float_of_int (List.length inputs));
          ("partition.memo_entries", float_of_int !memo);
        ];
    }
  in
  let quality () =
    quality_metrics
      (List.filter_map
         (fun inp ->
           Option.map
             (fun ((c : C.t), _) ->
               let sim = plain_sim inp.env.D.ctx c.C.schedule in
               (inp.label, plan_quality inp.env inp.graph c ~sim_total:sim.Sim.total))
             (Hashtbl.find_opt reference inp.label))
         inputs)
  in
  {
    round;
    traced_round;
    quality;
    trace_extras = (fun () -> []);
    costmodel_chips =
      List.sort_uniq compare (List.map (fun i -> P.ctx_chip i.env.D.ctx) inputs);
  }

(* ---- serve-warm ----------------------------------------------------- *)

let serve_cfg = scaled Zoo.llama2_13b
let max_batch = 8

(* Request streams per round, drawn with stream seeds 1 to [streams]: one
   200-request stream's serving work, its count of distinct padded batch
   shapes, swings by a third from seed to seed, and eight seeded streams'
   by a tenth, so the set is fixed and the workload seed orders it, as it
   orders zoo-compile's plans. *)
let streams = 4

let serve_warm ~seed =
  let env = D.env () in
  let spec =
    Option.get
      (Elk_serve.Workload.preset "poisson" ~rate:500. ~prompt_mean:128 ~output_mean:16)
  in
  let serve stream =
    let reqs = Elk_serve.Workload.generate ~seed:stream ~n:200 spec in
    let res =
      span "frontend.run" (fun () -> Frontend.run ~max_batch env serve_cfg reqs)
    in
    let rep =
      span "slo.report" (fun () ->
          Slo.of_result ~slo_ttft:0.05 ~slo_itl:0.005 ~workload:"poisson" ~seed:stream res)
    in
    (res, rep)
  in
  let order =
    Elk_util.Xrng.shuffle (Elk_util.Xrng.create seed) (List.init streams (fun i -> i + 1))
  in
  let cold = List.map (fun stream -> (stream, serve stream)) order in
  let cold_json = List.map (fun (stream, (_, rep)) -> (stream, Slo.to_json rep)) cold in
  let round () =
    let served, counts =
      with_cache_counts (fun () ->
          List.map (fun stream -> (stream, timed (fun () -> serve stream))) order)
    in
    expect "serve-warm: no compile-cache miss in a warm round" (snd counts = 0);
    List.iter
      (fun (stream, ((_, rep), _)) ->
        expect "serve-warm: SLO report byte-identical to the cold pass"
          (Slo.to_json rep = List.assoc stream cold_json))
      served;
    let shapes =
      List.fold_left (fun a (_, ((res, _), _)) -> a + res.Frontend.distinct_shapes) 0 served
    in
    {
      items = List.map (fun (stream, (_, secs)) -> ("stream " ^ string_of_int stream, secs)) served;
      extra = ("frontend.shapes", float_of_int shapes) :: cache_metrics counts;
    }
  in
  (* The serving path reaches the verifier only through the compile
     cache; the traced round wraps the installed gate in a span. *)
  let traced_round () =
    let gate = C.verifier () in
    C.set_verifier
      (Some (fun ctx s p -> span "verify.check" (fun () -> Verify.check ctx s p)));
    Fun.protect ~finally:(fun () -> C.set_verifier gate) round
  in
  (* Plan quality of a full batch (max_batch) at the stream's typical
     shape: prompts padded to 192, one 16-token block (the output mean
     and the token padding unit), decode contexts on Serve's 64-entry
     plan quantum. *)
  let quality () =
    let batch = max_batch and prompt = 192 and tokens = 16 and quantum = 64 in
    let phases =
      Zoo.Prefill { batch; seq = prompt }
      :: List.init tokens (fun k ->
             Zoo.Decode { batch; ctx = (prompt + k + quantum - 1) / quantum * quantum })
      |> List.sort_uniq compare
    in
    quality_metrics
      (List.filter_map
         (fun phase ->
           let graph = Zoo.build serve_cfg phase in
           Option.map
             (fun (c : C.t) ->
               let sim = plain_sim env.D.ctx c.C.schedule in
               (Graph.name graph, plan_quality env graph c ~sim_total:sim.Sim.total))
             (checked_compile "serve-warm: served plan" (fun () ->
                  C.compile env.D.ctx ~pod:env.D.pod graph)))
         phases)
  in
  (* SLO numbers: the median over the streams. *)
  let trace_extras () =
    let over f = median (List.map (fun (_, (_, rep)) -> f rep) cold) in
    [
      ("slo.ttft_p90_ms", over (fun r -> r.Slo.ttft.Slo.p90 *. 1e3));
      ("slo.itl_p99_ms", over (fun r -> r.Slo.itl.Slo.p99 *. 1e3));
      ("slo.goodput", over (fun r -> r.Slo.goodput));
    ]
  in
  {
    round;
    traced_round;
    quality;
    trace_extras;
    costmodel_chips = [ P.ctx_chip env.D.ctx ];
  }

(* ---- zoo-observe ---------------------------------------------------- *)

let zoo_observe ~seed =
  let inputs = zoo_inputs ~seed in
  let plans =
    List.filter_map
      (fun inp ->
        Option.map
          (fun c -> (inp, c))
          (checked_compile ("compile " ^ inp.label) (fun () ->
               C.compile inp.env.D.ctx ~pod:inp.env.D.pod inp.graph)))
      inputs
  in
  let totals = Hashtbl.create 16 in
  let round () =
    let items =
      List.map
        (fun (inp, (c : C.t)) ->
          let ctx = inp.env.D.ctx and s = c.C.schedule in
          let what check = inp.label ^ ": " ^ check in
          let plain, secs =
            timed (fun () ->
                let plain = span "sim.run" (fun () -> plain_sim ctx s) in
                let r =
                  span "sim.recorded" (fun () -> Sim.run ~events:true ~mem:true ~noc:true ctx s)
                in
                expect (what "recording leaves Sim.run's total unchanged")
                  (r.Sim.total = plain.Sim.total);
                expect_ok (what "Perfcore.check")
                  (span "perfcore.check" (fun () ->
                       Elk_sim.Perfcore.check plain.Sim.perf ~total:plain.Sim.total));
                let events = Option.get r.Sim.events in
                ignore (span "critpath.extract" (fun () -> Elk_sim.Critpath.extract events));
                expect_ok (what "Critpath.check")
                  (span "critpath.check" (fun () ->
                       Elk_sim.Critpath.check events ~total:r.Sim.total));
                let mem =
                  span "memprof.analyze" (fun () -> Elk_analyze.Memprof.analyze ctx s r)
                in
                expect_ok (what "Memprof.check")
                  (span "memprof.check" (fun () -> Elk_analyze.Memprof.check mem));
                let noc = span "nocprof.analyze" (fun () -> Elk_analyze.Nocprof.analyze s r) in
                expect_ok (what "Nocprof.check")
                  (span "nocprof.check" (fun () -> Elk_analyze.Nocprof.check noc));
                plain)
          in
          (match Hashtbl.find_opt totals inp.label with
          | Some t -> expect (what "simulated total repeats exactly") (t = plain.Sim.total)
          | None -> Hashtbl.replace totals inp.label plain.Sim.total);
          (inp.label, secs))
        plans
    in
    { items; extra = [] }
  in
  let quality () =
    quality_metrics
      (List.map
         (fun (inp, c) ->
           ( inp.label,
             plan_quality inp.env inp.graph c ~sim_total:(Hashtbl.find totals inp.label) ))
         plans)
  in
  (* Each recorder's marginal cost: recorded over plain Sim.run time,
     summed over the plans, recorders taken one at a time.  Each variant
     runs in blocks of three, so that it mostly pays for its own garbage,
     and the blocks rotate so that host drift and the garbage left over
     from the block before hit every variant alike. *)
  let trace_extras () =
    let variants =
      [|
        (fun ctx s -> plain_sim ctx s);
        (fun ctx s -> Sim.run ~events:true ~mem:false ~noc:false ctx s);
        (fun ctx s -> Sim.run ~events:false ~mem:true ~noc:false ctx s);
        (fun ctx s -> Sim.run ~events:false ~mem:false ~noc:true ctx s);
      |]
    in
    let n = Array.length variants in
    let secs = Array.make n 0. in
    for pass = 0 to 1 do
      List.iteri
        (fun k (inp, (c : C.t)) ->
          for j = 0 to n - 1 do
            let i = (j + k + pass) mod n in
            let (), t =
              timed (fun () ->
                  for _ = 1 to 3 do
                    ignore (variants.(i) inp.env.D.ctx c.C.schedule)
                  done)
            in
            secs.(i) <- secs.(i) +. t
          done)
        plans
    done;
    let ratio i = secs.(i) /. secs.(0) in
    [
      ("sim.overhead.events", ratio 1);
      ("sim.overhead.mem", ratio 2);
      ("sim.overhead.noc", ratio 3);
    ]
  in
  {
    round;
    traced_round = round;
    quality;
    trace_extras;
    costmodel_chips =
      List.sort_uniq compare (List.map (fun i -> P.ctx_chip i.env.D.ctx) inputs);
  }

let workloads =
  [
    (* Every compile starts from reset caches and a new context, so the
       first round is as cold as the others: no warm-up round. *)
    { name = "zoo-compile"; setups = 5; min_rounds = 3; warm_up = false; setup = zoo_compile };
    { name = "serve-warm"; setups = 1; min_rounds = 5; warm_up = true; setup = serve_warm };
    { name = "zoo-observe"; setups = 1; min_rounds = 5; warm_up = true; setup = zoo_observe };
  ]

(* ------------------------------------------------------------------ *)
(* Run loop                                                           *)
(* ------------------------------------------------------------------ *)

let counter name = Option.value (Metrics.counter_value name) ~default:0.

(* Warning-severity diagnostics, from the per-rule counters the verifier
   bumps on every run. *)
let verify_warnings () =
  List.fold_left
    (fun acc (r : Elk_verify.Rules.rule) ->
      if r.Elk_verify.Rules.default_severity <> Elk_verify.Diag.Warning then acc
      else
        let id =
          String.map (fun c -> if c = '.' || c = '-' then '_' else c) r.Elk_verify.Rules.id
        in
        acc +. counter ("elk_verify_diag_" ^ id ^ "_total"))
    0. Elk_verify.Rules.all

let counted =
  [
    ("scheduler.runs", fun () -> counter "elk_scheduler_runs_total");
    ("scheduler.backtracks", fun () -> counter "elk_scheduler_backtracks_total");
    ("sim.runs", fun () -> counter "elk_sim_runs_total");
    ("sim.events", fun () -> counter "elk_sim_events_total");
    ("frontend.batches", fun () -> counter "elk_frontend_batches_total");
    ("verify.warnings", verify_warnings);
  ]

let span_counts spans names =
  List.length (List.filter (fun (s : Span.t) -> List.mem s.Span.name names) spans)

let round_secs (r : round) = List.fold_left (fun a (_, t) -> a +. t) 0. r.items

(* A round's time with the least interference from the rest of the host:
   each item's fastest run over [rounds], summed in label order.  The
   items are short (a plan or a stream) and the rounds take turns on the
   process's CPUs (see [next_cpu]), so each item's fastest run comes from
   a quiet moment of one of them. *)
let best_round rounds =
  let fastest = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (label, t) ->
          match Hashtbl.find_opt fastest label with
          | Some b when b <= t -> ()
          | _ -> Hashtbl.replace fastest label t)
        r.items)
    rounds;
  Hashtbl.fold (fun label t l -> (label, t) :: l) fastest []
  |> List.sort compare
  |> List.fold_left (fun a (_, t) -> a +. t) 0.

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

(* Set-ups and rounds take turns on the CPUs the process may use.  On a
   shared host, the neighbours of each CPU slow memory-bound code by up to
   2x, in spells of seconds to minutes that the other CPU does not share;
   a run pinned to one CPU can spend all of its rounds in one spell. *)
let next_cpu =
  let cpus = allowed_cpus () and turn = ref 0 in
  fun () ->
    (match cpus with
    | [] | [ _ ] -> ()
    | cpus ->
        if not (pin_cpu (List.nth cpus (!turn mod List.length cpus))) then
          failwith "cannot set the CPU affinity");
    incr turn

(* One traced round: Elk_obs on, spans cleared, counters differenced. *)
let traced (r : runner) =
  Elk_obs.Control.enable ();
  Span.clear ();
  let before = List.map (fun (n, f) -> (n, f ())) counted in
  let round = r.traced_round () in
  let spans = Span.spans () in
  let counts = List.map (fun (n, f) -> (n, f () -. List.assoc n before)) counted in
  Elk_obs.Control.disable ();
  let self = Layers.self_times spans in
  let get l k = Option.value (List.assoc_opt k l) ~default:0. in
  let evals = float_of_int (span_counts spans [ "timeline.evaluate" ]) in
  let sched_runs = get counts "scheduler.runs" in
  let sim_s = get self "sim.run_s" +. get self "sim.recorded_s" in
  let derived =
    [
      ("alloc.calls", float_of_int (span_counts spans [ "allocate" ]));
      ("timeline.evaluate_calls", evals);
      ("scheduler.useful_frac", if sched_runs > 0. then evals /. sched_runs else 0.);
      ("sim.events_per_s", if sim_s > 0. then get counts "sim.events" /. sim_s else 0.);
      ("other_s", round_secs round -. List.fold_left (fun a (_, v) -> a +. v) 0. self);
    ]
  in
  { round with extra = self @ counts @ derived @ round.extra }

(* One untraced round, with the words its timed work allocated on the
   minor heap (the round's own bookkeeping, such as output checks, is
   left out). *)
let untraced (r : runner) =
  let w0 = !timed_words in
  let round = r.round () in
  { round with extra = ("gc.minor_words", !timed_words -. w0) :: round.extra }

(* Per-round values folded over the measured rounds: a count must repeat
   exactly; anything else is reported as its median. *)
let fold_rounds extras =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) extras) in
  List.map
    (fun name ->
      let vs = List.filter_map (List.assoc_opt name) extras in
      match List.assoc_opt name Layers.units with
      | Some ("count" | "words") -> (name, exact name vs)
      | _ -> (name, median vs))
    names

(* "The highest percentile that has at least ten rounds beyond it." *)
let tail_summary xs =
  let n = List.length xs in
  if n <= 10 then "no percentile has 10 rounds beyond it"
  else
    let p = 100 * (n - 10) / n in
    Printf.sprintf "p%d %.6f s" p (Stats.percentile (float_of_int p) xs)

(* All 17 digits of a finite value ([Jsonx.number] keeps 12); [null] for
   the rest, which the finiteness check has already failed. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else Elk_obs.Jsonx.number v

let json_metrics ms =
  let quote = Elk_obs.Jsonx.quote in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote name) (json_number v)
             (quote unit))
         ms)
  ^ "}"

let run (w : workload) ~seed ~seconds ~trace =
  Elk_util.Pool.set_jobs 1;
  if C.verifier () = None then failwith "the elk_verify compile gate is not armed";
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b jobs=%d\n%!" w.name seed seconds
    trace (Elk_util.Pool.current_jobs ());
  (* Each set-up starts from cold compile caches; the last one is kept. *)
  let rec set_up k times =
    Cc.reset ();
    next_cpu ();
    let r, secs = timed (fun () -> w.setup ~seed) in
    let times = secs :: times in
    if k <= 1 then (times, r) else set_up (k - 1) times
  in
  let setups, r = set_up w.setups [] in
  (* Warm-up, discarded.  A traced one also registers the library's
     metrics, which some untraced code paths then reset. *)
  if w.warm_up then begin
    next_cpu ();
    Printf.printf "warm-up round %.4f s\n" (round_secs (untraced r))
  end;
  if trace then begin
    next_cpu ();
    ignore (traced r)
  end;
  (* A trace run alternates untraced and traced rounds, a pair on each
     CPU in turn.  The top heap is read once [min_rounds] rounds are done:
     a fixed point of a deterministic computation, unlike the end of a
     timed loop. *)
  let deadline = now () +. seconds in
  let peak_heap_mb = ref 0. in
  let rec loop n us ts =
    if n >= w.min_rounds && now () >= deadline then (List.rev us, List.rev ts)
    else begin
      next_cpu ();
      let u = untraced r in
      let ts = if trace then traced r :: ts else ts in
      if n + 1 = w.min_rounds then
        peak_heap_mb :=
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      loop (n + 1) (u :: us) ts
    end
  in
  let us, ts = loop 0 [] [] in
  let peak_heap_mb = !peak_heap_mb in
  let rounds = List.map round_secs us in
  let round_best_s = best_round us and setup_s = median setups in
  (* Without a warm-up round, the first round also pays the library's
     one-time initialisation (a few thousand minor words): its word count
     is left out. *)
  let untraced_counts =
    fold_rounds
      (List.mapi
         (fun i u ->
           if i = 0 && not w.warm_up then List.remove_assoc "gc.minor_words" u.extra else u.extra)
         us)
  in
  let quality = r.quality () in
  Printf.printf "setup_s       %.6f s  (median of %d set-ups: %s)\n" setup_s w.setups
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") setups));
  Printf.printf "round_best_s  %.6f s  (fastest run of each of %d items over %d rounds, summed)\n"
    round_best_s
    (List.length (List.hd us).items)
    (List.length rounds);
  Printf.printf "rounds        %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") rounds));
  Printf.printf "round totals  median %.6f s, %s\n" (median rounds) (tail_summary rounds);
  List.iter (fun (n, v, u) -> Printf.printf "%-13s %.6g %s\n" n v u) quality;
  Printf.printf "peak_heap_mb  %.3f MB\n" peak_heap_mb;
  let metrics =
    if not trace then
      [
        ("round_best_s", round_best_s, "s"); ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
      @ quality
    else begin
      let traced_best_s = best_round ts in
      let train_s =
        List.fold_left
          (fun acc chip ->
            let t0 = now () in
            ignore (Elk_cost.Costmodel.train ~seed:42 chip);
            acc +. (now () -. t0))
          0. r.costmodel_chips
      in
      let measured =
        fold_rounds (List.map (fun t -> t.extra) ts)
        @ untraced_counts
        @ [
            ("costmodel.train_s", train_s);
            ("trace.overhead", traced_best_s /. round_best_s);
          ]
        @ r.trace_extras ()
      in
      (* Every per-layer metric, zero where the workload does not reach
         the layer. *)
      let ms =
        List.map
          (fun (name, unit) ->
            (name, Option.value (List.assoc_opt name measured) ~default:0., unit))
          Layers.units
      in
      let traced_round_s = median (List.map round_secs ts) in
      Layers.print_report ~workload:w.name ~round_s:traced_round_s ms;
      Printf.printf "other_s share of the median traced round: %.2f%%\n"
        (100. *. List.assoc "other_s" measured /. traced_round_s);
      ms
    end
  in
  List.iter (fun (n, v, _) -> expect (n ^ " is a finite number") (Float.is_finite v)) metrics;
  let fail_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "fail_frac     %.6g  (%d of %d operations failed)\n" fail_frac !failed !attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (!failed = 0) !attempted !failed (json_metrics metrics);
  if !failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.Set_int seed, " workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "elkbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w -> (
      try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        exit 2)
