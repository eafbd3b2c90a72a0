(* Serving front-end + SLO report: per-request lifecycle ordering, FCFS
   batch structure, plan-cache behavior, time-series tiling, and the
   determinism of the whole pipeline under different jobs counts. *)

open Elk_serve
module B = Elk_baselines.Baselines

let cfg = Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:16 ~layer_factor:20

let spec =
  {
    Workload.arrival = Workload.Poisson { rate = 400. };
    prompt = Workload.Uniform { lo = 16; hi = 96 };
    output = Workload.Uniform { lo = 2; hi = 10 };
  }

let result =
  lazy
    (let reqs = Workload.generate ~seed:21 ~n:12 spec in
     Frontend.run ~design:B.Elk_dyn ~max_batch:4 (Elk_dse.Dse.env ()) cfg reqs)

let test_lifecycle_order () =
  let r = Lazy.force result in
  Alcotest.(check int) "all requests served" 12 (List.length r.Frontend.requests);
  List.iter
    (fun (t : Frontend.req_trace) ->
      let a = t.req.Workload.arrival_s in
      Alcotest.(check bool) "arrival <= admitted" true (a <= t.Frontend.admitted);
      Alcotest.(check bool) "admitted < prefill_end" true
        (t.Frontend.admitted < t.Frontend.prefill_end);
      Alcotest.(check bool) "prefill_end < first_token" true
        (t.Frontend.prefill_end < t.Frontend.first_token);
      Alcotest.(check bool) "first_token <= finish" true
        (t.Frontend.first_token <= t.Frontend.finish);
      Alcotest.(check bool) "finish within makespan" true
        (t.Frontend.finish <= r.Frontend.makespan +. 1e-12);
      Alcotest.(check int) "one itl per extra token"
        (t.Frontend.req.Workload.output_len - 1)
        (List.length t.Frontend.itls);
      Alcotest.(check bool) "ttft positive" true (Frontend.ttft t > 0.);
      Alcotest.(check bool) "queue wait nonnegative" true
        (Frontend.queue_wait t >= 0.))
    r.Frontend.requests

let test_fcfs_batches () =
  let r = Lazy.force result in
  (* Batches hold the engine exclusively and in formation order. *)
  let rec walk = function
    | (a : Frontend.batch_trace) :: (b :: _ as rest) ->
        Alcotest.(check bool) "no overlap" true (a.Frontend.b_end <= b.Frontend.b_formed +. 1e-12);
        walk rest
    | _ -> ()
  in
  walk r.Frontend.batches;
  List.iter
    (fun (b : Frontend.batch_trace) ->
      Alcotest.(check bool) "batch within max_batch" true (b.Frontend.b_size <= 4);
      Alcotest.(check bool) "bucket covers size" true
        (b.Frontend.b_bucket >= b.Frontend.b_size);
      Alcotest.(check bool) "live starts at size" true
        (b.Frontend.b_live.(0) = b.Frontend.b_size);
      Alcotest.(check int) "steps cover longest member" b.Frontend.b_tokens
        (Array.length b.Frontend.b_step_ends))
    r.Frontend.batches;
  (* FCFS: requests are admitted in arrival (= id) order. *)
  let rec admitted_mono = function
    | (a : Frontend.req_trace) :: (b :: _ as rest) ->
        Alcotest.(check bool) "admission order follows arrival order" true
          (a.Frontend.admitted <= b.Frontend.admitted +. 1e-12);
        admitted_mono rest
    | _ -> ()
  in
  admitted_mono r.Frontend.requests

let test_plan_cache () =
  let r = Lazy.force result in
  Alcotest.(check bool) "some shapes computed" true (r.Frontend.distinct_shapes > 0);
  Alcotest.(check bool) "cache reuses shapes" true
    (r.Frontend.distinct_shapes <= List.length r.Frontend.batches)

let test_timeseries_tiling () =
  let r = Lazy.force result in
  let ts = Frontend.timeseries r in
  List.iter
    (fun name ->
      match Elk_obs.Timeseries.check_tiling ts ~horizon:r.Frontend.makespan name with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    (Elk_obs.Timeseries.names ts);
  Alcotest.(check bool) "queue depth recorded" true
    (Elk_obs.Timeseries.events_recorded ts "queue_depth" > 0);
  (* every generated token lands in the completed counter *)
  let total =
    List.fold_left
      (fun a p -> a +. p.Elk_obs.Timeseries.sum)
      0.
      (Elk_obs.Timeseries.points ts ~horizon:r.Frontend.makespan "tokens_completed")
  in
  Alcotest.(check (float 1e-9)) "tokens completed = workload tokens"
    (float_of_int
       (Workload.total_output_tokens
          (List.map (fun t -> t.Frontend.req) r.Frontend.requests)))
    total

let test_slo_report () =
  let r = Lazy.force result in
  let rp = Slo.of_result ~slo_ttft:10. ~workload:"poisson" ~seed:21 r in
  Alcotest.(check int) "request count" 12 rp.Slo.n_requests;
  Alcotest.(check bool) "goodput in (0,1]" true
    (rp.Slo.goodput > 0. && rp.Slo.goodput <= 1.);
  Alcotest.(check bool) "percentiles ordered" true
    (rp.Slo.ttft.Slo.p50 <= rp.Slo.ttft.Slo.p99
    && rp.Slo.ttft.Slo.p99 <= rp.Slo.ttft.Slo.max);
  Alcotest.(check bool) "throughput positive" true (rp.Slo.tokens_per_second > 0.);
  (* a 10-second TTFT budget on a sub-second run: everything attains *)
  Alcotest.(check (option (float 1e-9))) "attainment" (Some 1.) rp.Slo.attainment;
  let no_slo = Slo.of_result ~workload:"poisson" ~seed:21 r in
  Alcotest.(check (option (float 1e-9))) "no target, no attainment" None
    no_slo.Slo.attainment;
  (* the snapshot parses and carries the trace-diffable core *)
  match Elk_obs.Jsonx.parse (Slo.to_json rp) with
  | Error m -> Alcotest.fail ("SLO JSON invalid: " ^ m)
  | Ok v ->
      (match Option.bind (Elk_obs.Jsonx.member "total" v) Elk_obs.Jsonx.to_float with
      | Some total ->
          Alcotest.(check (float 1e-6)) "total = makespan (rounded)"
            r.Frontend.makespan total
      | None -> Alcotest.fail "total missing");
      (match Elk_obs.Jsonx.member "segments" v with
      | Some (Elk_obs.Jsonx.Arr segs) ->
          Alcotest.(check int) "3 metrics x 5 kinds" 15 (List.length segs)
      | _ -> Alcotest.fail "segments missing")

let test_determinism_across_jobs () =
  let reqs = Workload.generate ~seed:77 ~n:6 spec in
  let run () =
    Slo.to_json
      (Slo.of_result ~workload:"poisson" ~seed:77
         (Frontend.run ~design:B.Elk_dyn ~max_batch:4 (Elk_dse.Dse.env ()) cfg reqs))
  in
  Elk_util.Pool.set_jobs 1;
  let a = run () in
  Elk_util.Pool.set_jobs 4;
  let b = run () in
  Alcotest.(check string) "SLO JSON identical across jobs counts" a b

(* A serving run plans each distinct phase once.  Every plan passes the
   verifier gate, a compile-cache hit included, so the gate runs once
   per prefill and decode phase the batches reach. *)
let test_phase_planned_once () =
  let reqs = Workload.generate ~seed:21 ~n:12 spec in
  let gate = Elk.Compile.verifier () in
  let calls = ref 0 in
  Elk.Compile.set_verifier
    (Some
       (fun ctx s p ->
         incr calls;
         match gate with Some verify -> verify ctx s p | None -> Ok ()));
  let r =
    Fun.protect
      ~finally:(fun () -> Elk.Compile.set_verifier gate)
      (fun () ->
        Frontend.run ~design:B.Elk_dyn ~max_batch:4 (Elk_dse.Dse.env ()) cfg reqs)
  in
  (* Token counts pad to a multiple of 16; decode plans serve contexts
     rounded up to 64-entry boundaries. *)
  let round_up v q = (v + q - 1) / q * q in
  let phases =
    List.concat_map
      (fun (b : Frontend.batch_trace) ->
        Elk_model.Zoo.Prefill { batch = b.b_bucket; seq = b.b_prompt_ctx }
        :: List.init (round_up b.b_tokens 16) (fun k ->
               Elk_model.Zoo.Decode
                 { batch = b.b_bucket; ctx = round_up (b.b_prompt_ctx + k) 64 }))
      r.Frontend.batches
  in
  Alcotest.(check int) "one gate call per distinct phase"
    (List.length (List.sort_uniq compare phases))
    !calls

(* The step-latency histogram holds the decode steps requests waited
   for: each batch's [b_tokens] timed steps, not the padding up to a
   multiple of 16 that its generation also ran. *)
let test_step_histogram_counts_timed_steps () =
  let reqs = Workload.generate ~seed:21 ~n:12 spec in
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  let r =
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Elk_obs.Control.disable ())
      (fun () ->
        Frontend.run ~design:B.Elk_dyn ~max_batch:4 (Elk_dse.Dse.env ()) cfg reqs)
  in
  let timed = List.fold_left (fun a (b : Frontend.batch_trace) -> a + b.b_tokens) 0 r.Frontend.batches in
  match Elk_obs.Metrics.histogram_stats "elk_serve_step_latency_seconds" with
  | None -> Alcotest.fail "step-latency histogram missing"
  | Some (count, _, _, _) -> Alcotest.(check int) "one sample per timed step" timed count

(* serve --noc: with interconnect recording on, every batch carries the
   hottest link of its plans, the busiest-link gauge enters the series,
   and the lifecycle timestamps are identical to a run without it. *)
let test_noc_gauge () =
  let reqs = Workload.generate ~seed:21 ~n:6 spec in
  let env = Elk_dse.Dse.env () in
  let plain = Frontend.run ~design:B.Elk_dyn ~max_batch:4 env cfg reqs in
  let noc = Frontend.run ~design:B.Elk_dyn ~max_batch:4 ~noc:true env cfg reqs in
  Tu.check_float "makespan identical" plain.Frontend.makespan
    noc.Frontend.makespan;
  List.iter
    (fun (b : Frontend.batch_trace) ->
      Alcotest.(check bool) "busiest link named" true (b.Frontend.b_busiest_link <> "");
      Alcotest.(check bool) "link busy positive" true (b.Frontend.b_link_busy > 0.))
    noc.Frontend.batches;
  List.iter
    (fun (b : Frontend.batch_trace) ->
      Alcotest.(check string) "off-mode link empty" "" b.Frontend.b_busiest_link)
    plain.Frontend.batches;
  let ts = Frontend.timeseries ~noc:true noc in
  Alcotest.(check bool) "gauge present" true
    (List.mem "noc_busiest_link_busy" (Elk_obs.Timeseries.names ts));
  let rp =
    Slo.of_result ~noc:true ~workload:"poisson" ~seed:21 noc
  in
  Alcotest.(check bool) "slo report carries the gauge" true
    (List.mem "noc_busiest_link_busy" (Elk_obs.Timeseries.names rp.Slo.series))

let test_rejects_bad_input () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let env = Elk_dse.Dse.env () in
  let reqs = Workload.generate ~seed:1 ~n:3 spec in
  bad (fun () -> ignore (Frontend.run env cfg []));
  bad (fun () -> ignore (Frontend.run ~max_batch:0 env cfg reqs));
  bad (fun () -> ignore (Frontend.run env cfg (List.rev reqs)))

let suite =
  [
    Alcotest.test_case "lifecycle order" `Quick test_lifecycle_order;
    Alcotest.test_case "fcfs batches" `Quick test_fcfs_batches;
    Alcotest.test_case "plan cache" `Quick test_plan_cache;
    Alcotest.test_case "each phase planned once" `Quick test_phase_planned_once;
    Alcotest.test_case "timeseries tiling" `Quick test_timeseries_tiling;
    Alcotest.test_case "slo report" `Quick test_slo_report;
    Alcotest.test_case "determinism across jobs" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "step histogram counts timed steps" `Quick
      test_step_histogram_counts_timed_steps;
    Alcotest.test_case "noc busiest-link gauge" `Quick test_noc_gauge;
    Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
  ]
