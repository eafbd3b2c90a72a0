(* SLO report over a served workload.

   Distills a Frontend.result into the numbers an operator watches:
   TTFT / inter-token-latency / queue-wait percentiles, useful
   tokens/second, goodput (useful vs padded compute), and — when SLO
   targets are given — the fraction of requests that met them.  The
   report also carries the windowed time series (queue depth,
   throughput, rolling percentiles) and validates that its windows tile
   the simulated horizon with no gaps before anything is exported.

   Every number is derived from simulated time, so the JSON snapshot is
   byte-identical run to run for a given seed.  The snapshot doubles as
   an `elk trace diff` baseline: the latency percentiles are encoded as
   segments in the shape Tracediff aggregates, so CI can gate SLO
   regressions with the machinery that already gates critical paths. *)

module S = Elk_util.Stats
module J = Elk_obs.Jsonx

type pct = { p50 : float; p90 : float; p99 : float; mean : float; max : float }

let pct_of = function
  | [] -> { p50 = 0.; p90 = 0.; p99 = 0.; mean = 0.; max = 0. }
  | xs ->
      let p = S.percentiles [| 50.; 90.; 99. |] xs in
      {
        p50 = p.(0);
        p90 = p.(1);
        p99 = p.(2);
        mean = S.mean xs;
        max = List.fold_left Float.max neg_infinity xs;
      }

type report = {
  workload : string;
  seed : int;
  n_requests : int;
  n_batches : int;
  makespan : float;
  ttft : pct;
  itl : pct;
  queue_wait : pct;
  tokens_per_second : float;  (* useful output tokens / makespan *)
  useful_tokens : int;
  padded_tokens : int;  (* padded batch slots computed and discarded *)
  goodput : float;  (* useful / (useful + padded) *)
  slo_ttft : float option;
  slo_itl : float option;
  attainment : float option;  (* fraction of requests meeting every set SLO *)
  distinct_shapes : int;
  recompilations : int;
  series : Elk_obs.Timeseries.t;
}

(* A request attains its SLOs when its TTFT and its mean inter-token
   latency are both within target (unset targets always pass). *)
let attains ?slo_ttft ?slo_itl (t : Frontend.req_trace) =
  let ok target v = match target with None -> true | Some x -> v <= x in
  ok slo_ttft (Frontend.ttft t) && ok slo_itl (S.mean t.itls)

let of_result ?slo_ttft ?slo_itl ?window ?mem ?noc ~workload ~seed
    (r : Frontend.result) =
  let series = Frontend.timeseries ?window ?mem ?noc r in
  (* The time series must tile [0, makespan] edge to edge — a gap means
     a window went missing and every rate in the report is suspect. *)
  Result.iter_error
    (fun m -> invalid_arg (Printf.sprintf "Slo.of_result: %s" m))
    (Elk_obs.Timeseries.check_all series ~horizon:r.makespan);
  let useful, padded =
    List.fold_left
      (fun (u, p) (b : Frontend.batch_trace) ->
        Array.fold_left
          (fun (u, p) live -> (u + live, p + (b.b_bucket - live)))
          (u, p) b.b_live)
      (0, 0) r.batches
  in
  let n = List.length r.requests in
  let met =
    List.length (List.filter (attains ?slo_ttft ?slo_itl) r.requests)
  in
  {
    workload;
    seed;
    n_requests = n;
    n_batches = List.length r.batches;
    makespan = r.makespan;
    ttft = pct_of (List.map Frontend.ttft r.requests);
    itl = pct_of (List.concat_map (fun t -> t.Frontend.itls) r.requests);
    queue_wait = pct_of (List.map Frontend.queue_wait r.requests);
    tokens_per_second =
      (if r.makespan > 0. then float_of_int useful /. r.makespan else 0.);
    useful_tokens = useful;
    padded_tokens = padded;
    goodput =
      (if useful + padded > 0 then
         float_of_int useful /. float_of_int (useful + padded)
       else 0.);
    slo_ttft;
    slo_itl;
    attainment =
      (if slo_ttft = None && slo_itl = None then None
       else Some (float_of_int met /. float_of_int n));
    distinct_shapes = r.distinct_shapes;
    recompilations = r.recompilations;
    series;
  }

(* ---- JSON snapshot ---------------------------------------------------- *)

let g = J.number6

let pct_fields p =
  [ ("p50", p.p50); ("p90", p.p90); ("p99", p.p99); ("mean", p.mean); ("max", p.max) ]

let pct_json p = J.obj (List.map (fun (k, v) -> J.field k (g v)) (pct_fields p))

let to_json rp =
  let segments =
    List.concat_map
      (fun (name, p) ->
        List.map
          (fun (kind, dur) -> { Elk_analyze.Tracediff.name; kind; resource = "latency"; dur })
          (pct_fields p))
      [ ("ttft", rp.ttft); ("itl", rp.itl); ("queue_wait", rp.queue_wait) ]
  in
  let opt = function None -> "null" | Some v -> g v in
  let int v = string_of_int v in
  J.obj
    ([
       J.field "workload" (J.quote rp.workload);
       J.field "seed" (int rp.seed);
       J.field "requests" (int rp.n_requests);
       J.field "batches" (int rp.n_batches);
     ]
    @ Elk_analyze.Tracediff.core_fields ~total:rp.makespan ~dominant:"ttft_p99"
        ~resources:[ ("latency", rp.ttft.p99 +. rp.itl.p99 +. rp.queue_wait.p99) ]
        ~segments
    @ [
        (* Full SLO payload *)
        J.field "ttft" (pct_json rp.ttft);
        J.field "itl" (pct_json rp.itl);
        J.field "queue_wait" (pct_json rp.queue_wait);
        J.field "tokens_per_second" (g rp.tokens_per_second);
        J.field "goodput" (g rp.goodput);
        J.field "useful_tokens" (int rp.useful_tokens);
        J.field "padded_tokens" (int rp.padded_tokens);
        J.field "slo"
          (J.obj
             [
               J.field "ttft" (opt rp.slo_ttft);
               J.field "itl" (opt rp.slo_itl);
               J.field "attainment" (opt rp.attainment);
             ]);
        J.field "distinct_shapes" (int rp.distinct_shapes);
        J.field "recompilations" (int rp.recompilations);
        J.field "series" (Elk_obs.Timeseries.to_json rp.series ~horizon:rp.makespan ());
      ])

(* ---- human-readable report ------------------------------------------- *)

let ms v = Printf.sprintf "%.2f ms" (1e3 *. v)

let print rp =
  Printf.printf "serving SLO report: %s workload, seed %d\n" rp.workload rp.seed;
  Printf.printf
    "  %d requests in %d batches over %.3f s simulated (%d shapes compiled, %d plan compiles)\n"
    rp.n_requests rp.n_batches rp.makespan rp.distinct_shapes rp.recompilations;
  Printf.printf "  throughput %.1f tok/s, goodput %.1f%% (%d useful / %d padded)\n\n"
    rp.tokens_per_second (100. *. rp.goodput) rp.useful_tokens rp.padded_tokens;
  let tbl =
    Elk_util.Table.create ~title:"latency"
      ~columns:[ "metric"; "p50"; "p90"; "p99"; "mean"; "max" ]
  in
  List.iter
    (fun (name, p) ->
      Elk_util.Table.add_row tbl
        [ name; ms p.p50; ms p.p90; ms p.p99; ms p.mean; ms p.max ])
    [ ("ttft", rp.ttft); ("itl", rp.itl); ("queue_wait", rp.queue_wait) ];
  Elk_util.Table.print tbl;
  (match (rp.slo_ttft, rp.slo_itl, rp.attainment) with
  | _, _, Some a ->
      let tgt = function None -> "-" | Some v -> ms v in
      Printf.printf "SLO: ttft <= %s, itl <= %s -> attainment %.1f%%\n\n"
        (tgt rp.slo_ttft) (tgt rp.slo_itl) (100. *. a)
  | _ -> ());
  (* queue depth over time, as a sparkline over the exported windows *)
  let points = Elk_obs.Timeseries.points rp.series ~horizon:rp.makespan "queue_depth" in
  if points <> [] then begin
    let vals = List.map (fun p -> p.Elk_obs.Timeseries.mean) points in
    Printf.printf "queue depth over time (%d windows of %g s):\n  %s\n"
      (List.length points)
      (float_of_string
         (Printf.sprintf "%.3g" (Elk_obs.Timeseries.window rp.series)))
      (Elk_util.Table.sparkline vals)
  end
