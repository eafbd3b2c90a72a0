open Elk_sim

(* Causal-DAG invariants (ISSUE 5).  The recorder in [Sim.run ~events:true]
   emits one event per simulated activity with its causal parent — the
   argmax of the start-time gate — so the backward walk in [Critpath]
   must tile the makespan exactly and CPM slack must be non-negative.
   Any violation means the recorder mis-identified a binding edge. *)

let result =
  lazy (Sim.run ~events:true (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let events_of (r : Sim.result) =
  match r.Sim.events with
  | Some ev -> ev
  | None -> Alcotest.fail "events requested but not recorded"

let summary = lazy (Critpath.extract (events_of (Lazy.force result)))

let test_disabled_by_default () =
  (* Recording is opt-in; the default run must not pay for it. *)
  let r = Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule) in
  Alcotest.(check bool) "no events" true (r.Sim.events = None)

let test_recording_does_not_perturb () =
  let off = Sim.run ~events:false (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule) in
  let on_ = Lazy.force result in
  Tu.check_float "same makespan" off.Sim.total on_.Sim.total;
  Array.iteri
    (fun o (a : Sim.op_trace) ->
      let b = on_.Sim.per_op.(o) in
      Tu.check_float "pre_end" a.Sim.pre_end b.Sim.pre_end;
      Tu.check_float "exe_end" a.Sim.exe_end b.Sim.exe_end)
    off.Sim.per_op

let test_dag_invariants () =
  let r = Lazy.force result in
  match Critpath.check (events_of r) ~total:r.Sim.total with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_path_identity () =
  let r = Lazy.force result in
  let s = Lazy.force summary in
  Tu.check_rel "summary total = makespan" ~tolerance:1e-9 r.Sim.total s.Critpath.total;
  let seg_sum =
    List.fold_left (fun a seg -> a +. seg.Critpath.s_dur) 0. s.Critpath.segments
  in
  Tu.check_rel "segments tile makespan" ~tolerance:1e-6 r.Sim.total seg_sum;
  let res_sum =
    List.fold_left (fun a (_, v) -> a +. v) 0. s.Critpath.resource_seconds
  in
  Tu.check_rel "resource seconds tile makespan" ~tolerance:1e-6 r.Sim.total res_sum

let test_critical_events_have_zero_slack () =
  let s = Lazy.force summary in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d on path has ~0 slack" id)
        true
        (Float.abs s.Critpath.slack.(id) <= 1e-6 *. Float.max 1. s.Critpath.total))
    s.Critpath.crit_ids

let test_op_slack_consistent () =
  let s = Lazy.force summary in
  Array.iteri
    (fun o sl ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d slack finite and nonneg" o)
        true
        (Float.is_finite sl && sl >= -1e-9);
      (* An operator with critical seconds must have ~zero min slack. *)
      if s.Critpath.op_crit.(o) > 1e-9 then
        Alcotest.(check bool)
          (Printf.sprintf "critical op %d has ~0 slack" o)
          true
          (sl <= 1e-6 *. Float.max 1. s.Critpath.total))
    s.Critpath.op_slack

(* Cross-check with [Elk_analyze]: the two layers answer different
   questions (attribution books every operator's span; the chain books
   only binding time), so dominants may legitimately differ when a
   pipelined resource hides behind overlapped executes — that divergence
   is the point of the causal trace.  What must ALWAYS hold, because both
   use the same Perfcore classification conventions:

   - chain compute/port seconds are a subset of the attributed
     compute/port totals (every critical compute segment is some
     operator's compute_len, which attribution also counts);
   - an exposed-wait-dominated attribution (HBM) cannot coexist with a
     chain that never touches the preload pipeline;
   - a compute-dominated chain forces a visible compute attribution. *)
let check_analyze_consistency name sched (r : Sim.result) (s : Critpath.summary) =
  let report = Elk_analyze.Analyze.analyze sched r in
  let a_share res =
    try List.assoc res report.Elk_analyze.Analyze.resource_totals with Not_found -> 0.
  in
  let c_share res =
    try List.assoc res s.Critpath.resource_seconds with Not_found -> 0.
  in
  let show () =
    Printf.sprintf "critpath: %s\n  analyze:  %s"
      (String.concat ", "
         (List.map
            (fun (r', v) -> Printf.sprintf "%s=%.3g" (Critpath.resource_name r') v)
            s.Critpath.resource_seconds))
      (String.concat ", "
         (List.map
            (fun (r', v) ->
              Printf.sprintf "%s=%.3g" (Elk_analyze.Analyze.resource_name r') v)
            report.Elk_analyze.Analyze.resource_totals))
  in
  let tol = 1e-6 *. Float.max 1e-12 s.Critpath.total in
  if c_share Critpath.Compute > a_share Elk_analyze.Analyze.Compute +. tol then
    Alcotest.failf "%s: chain compute exceeds attributed compute\n  %s" name (show ());
  if c_share Critpath.Port > a_share Elk_analyze.Analyze.Port +. tol then
    Alcotest.failf "%s: chain port exceeds attributed port\n  %s" name (show ());
  let a_max =
    List.fold_left
      (fun acc (_, v) -> Float.max acc v)
      0. report.Elk_analyze.Analyze.resource_totals
  in
  (match Critpath.dominant s with
  | Critpath.Compute ->
      if a_share Elk_analyze.Analyze.Compute < 0.4 *. a_max then
        Alcotest.failf "%s: compute-dominant chain but attribution disagrees\n  %s"
          name (show ())
  | Critpath.Hbm ->
      (* The chain's HBM reads are disjoint busy intervals of the HBM
         device, so a saturated chain needs a busy channel. *)
      if r.Sim.hbm_util < 0.35 *. (c_share Critpath.Hbm /. s.Critpath.total) then
        Alcotest.failf "%s: hbm-dominant chain but hbm_util only %.3g\n  %s" name
          r.Sim.hbm_util (show ())
  | _ -> ());
  (* And in the other direction: an attribution dominated by exposed
     preload waits means executes stalled on HBM, so the chain must
     route through the preload pipeline at those points. *)
  if
    a_share Elk_analyze.Analyze.Hbm >= 0.5 *. a_max
    && c_share Critpath.Hbm +. c_share Critpath.Interconnect
       < 0.5 *. a_share Elk_analyze.Analyze.Hbm
  then Alcotest.failf "%s: hbm-dominant attribution but chain avoids preloads\n  %s"
      name (show ())

let test_analyze_consistency () =
  let r = Lazy.force result in
  check_analyze_consistency "a2a" (Lazy.force Tu.tiny_schedule) r (Lazy.force summary)

(* Property sweep: scaled-down zoo models on both topologies.  CI runs
   the full-size models through `elk critpath`; here each config shrinks
   by 16x width so training + scheduling stays test-sized. *)
let zoo_cases =
  [
    ("llama2-13b", Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:16 ~layer_factor:20);
    ("gemma2-27b", Elk_model.Zoo.scale Elk_model.Zoo.gemma2_27b ~factor:16 ~layer_factor:23);
    ("opt-30b", Elk_model.Zoo.scale Elk_model.Zoo.opt_30b ~factor:8 ~layer_factor:24);
    ("dit-xl", Elk_model.Zoo.scale Elk_model.Zoo.dit_xl ~factor:8 ~layer_factor:14);
  ]

let run_case ~topo ctx (name, cfg) =
  let phase =
    if cfg.Elk_model.Zoo.family = Elk_model.Zoo.Dit then
      Elk_model.Zoo.Decode { batch = 2; ctx = 1 }
    else Elk_model.Zoo.Decode { batch = 8; ctx = 128 }
  in
  let g = Elk.Sharding.shard_graph ~chips:4 (Elk_model.Zoo.build cfg phase) in
  let s = Elk.Scheduler.run ctx g in
  let r = Sim.run ~events:true ctx s in
  let ev = events_of r in
  let label = Printf.sprintf "%s/%s" name topo in
  (match Critpath.check ev ~total:r.Sim.total with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" label m);
  let s' = Critpath.extract ev in
  Tu.check_rel (label ^ ": path length = makespan") ~tolerance:1e-6 r.Sim.total
    s'.Critpath.total;
  check_analyze_consistency label s r s'

let test_zoo_a2a () =
  List.iter (run_case ~topo:"a2a" (Lazy.force Tu.default_ctx)) zoo_cases

let test_zoo_mesh () =
  List.iter (run_case ~topo:"mesh" (Lazy.force Tu.mesh_ctx)) zoo_cases

let test_mesh_invariants () =
  let mctx = Lazy.force Tu.mesh_ctx in
  let s = Elk.Scheduler.run mctx (Lazy.force Tu.tiny_llama_chip_graph) in
  let r = Sim.run ~events:true mctx s in
  (match Critpath.check (events_of r) ~total:r.Sim.total with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_analyze_consistency "mesh" s r (Critpath.extract (events_of r))

let suite =
  [
    ("critpath: disabled by default", `Quick, test_disabled_by_default);
    ("critpath: recording does not perturb timing", `Quick, test_recording_does_not_perturb);
    ("critpath: DAG invariants", `Quick, test_dag_invariants);
    ("critpath: path tiles makespan", `Quick, test_path_identity);
    ("critpath: critical events zero slack", `Quick, test_critical_events_have_zero_slack);
    ("critpath: op slack consistent", `Quick, test_op_slack_consistent);
    ("critpath: consistent with analyze", `Quick, test_analyze_consistency);
    ("critpath: zoo sweep (a2a)", `Slow, test_zoo_a2a);
    ("critpath: zoo sweep (mesh)", `Slow, test_zoo_mesh);
    ("critpath: mesh invariants", `Slow, test_mesh_invariants);
  ]
