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
      {
        p50 = S.percentile 50. xs;
        p90 = S.percentile 90. xs;
        p99 = S.percentile 99. xs;
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
  List.iter
    (fun name ->
      match Elk_obs.Timeseries.check_tiling series ~horizon:r.makespan name with
      | Ok () -> ()
      | Error m -> invalid_arg (Printf.sprintf "Slo.of_result: %s" m))
    (Elk_obs.Timeseries.names series);
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

(* Round to keep snapshots stable under float noise, like the committed
   bench tables. *)
let g v = J.number (float_of_string (Printf.sprintf "%.6g" v))

let pct_segments name p =
  List.map
    (fun (kind, v) ->
      Printf.sprintf
        "{\"name\":%s,\"kind\":%s,\"resource\":\"latency\",\"dur\":%s}"
        (J.quote name) (J.quote kind) (g v))
    [ ("p50", p.p50); ("p90", p.p90); ("p99", p.p99); ("mean", p.mean);
      ("max", p.max) ]

let pct_json p =
  Printf.sprintf "{\"p50\":%s,\"p90\":%s,\"p99\":%s,\"mean\":%s,\"max\":%s}"
    (g p.p50) (g p.p90) (g p.p99) (g p.mean) (g p.max)

let to_json rp =
  let segments =
    pct_segments "ttft" rp.ttft
    @ pct_segments "itl" rp.itl
    @ pct_segments "queue_wait" rp.queue_wait
  in
  let opt = function None -> "null" | Some v -> g v in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"workload\":%s,\"seed\":%d," (J.quote rp.workload) rp.seed;
      Printf.sprintf "\"requests\":%d,\"batches\":%d," rp.n_requests rp.n_batches;
      (* Tracediff-comparable core: total + segments *)
      Printf.sprintf "\"total\":%s,\"dominant\":\"ttft_p99\"," (g rp.makespan);
      Printf.sprintf "\"resource_seconds\":{\"latency\":%s},"
        (g (rp.ttft.p99 +. rp.itl.p99 +. rp.queue_wait.p99));
      Printf.sprintf "\"segments\":[%s]," (String.concat "," segments);
      (* Full SLO payload *)
      Printf.sprintf "\"ttft\":%s,\"itl\":%s,\"queue_wait\":%s," (pct_json rp.ttft)
        (pct_json rp.itl)
        (pct_json rp.queue_wait);
      Printf.sprintf "\"tokens_per_second\":%s,\"goodput\":%s,"
        (g rp.tokens_per_second) (g rp.goodput);
      Printf.sprintf "\"useful_tokens\":%d,\"padded_tokens\":%d,"
        rp.useful_tokens rp.padded_tokens;
      Printf.sprintf "\"slo\":{\"ttft\":%s,\"itl\":%s,\"attainment\":%s},"
        (opt rp.slo_ttft) (opt rp.slo_itl) (opt rp.attainment);
      Printf.sprintf "\"distinct_shapes\":%d,\"recompilations\":%d,"
        rp.distinct_shapes rp.recompilations;
      Printf.sprintf "\"series\":%s"
        (Elk_obs.Timeseries.to_json rp.series ~horizon:rp.makespan ());
      "}";
    ]

(* ---- human-readable report ------------------------------------------- *)

let ms v = Printf.sprintf "%.2f ms" (1e3 *. v)

let sparkline values =
  let glyphs = [| " "; "_"; "."; ":"; "-"; "="; "+"; "*"; "#" |] in
  let hi = List.fold_left Float.max 0. values in
  if hi <= 0. then String.concat "" (List.map (fun _ -> glyphs.(0)) values)
  else
    String.concat ""
      (List.map
         (fun v ->
           let i = int_of_float (Float.round (v /. hi *. 8.)) in
           glyphs.(max 0 (min 8 i)))
         values)

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
      (sparkline vals)
  end
