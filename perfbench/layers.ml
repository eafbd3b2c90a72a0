(* Attribution of a traced round's spans to the pipeline's layers, and the
   layer table: for each layer, the end-to-end metric a speedup there is
   predicted to move and the workloads where it should read flat.  Later
   performance claims are checked against this prediction. *)

type layer = {
  modules : string;
  metrics : (string * string) list;  (** name and unit *)
  moves : string;
  flat : string;
}

let table =
  [
    {
      modules = "Elk_partition.Partition";
      metrics = [ ("partition.enum_s", "s"); ("partition.memo_entries", "count") ];
      moves = "round_best_s zoo-compile; setup_s serve-warm, zoo-observe";
      flat = "round_best_s serve-warm, zoo-observe";
    };
    {
      modules = "Elk.Scheduler + Elk.Alloc";
      metrics =
        [
          ("scheduler.run_s", "s"); ("scheduler.runs", "count");
          ("scheduler.useful_frac", "frac"); ("scheduler.backtracks", "count");
          ("alloc.calls", "count");
        ];
      moves = "round_best_s zoo-compile; setup_s serve-warm, zoo-observe";
      flat = "round_best_s serve-warm, zoo-observe";
    };
    {
      modules = "Elk.Reorder";
      metrics =
        [
          ("reorder.orders_s", "s"); ("reorder.orders", "count");
          ("reorder.win_frac", "frac");
        ];
      moves = "round_best_s zoo-compile, through scheduler.runs";
      flat = "serve-warm, zoo-observe";
    };
    {
      modules = "Elk.Timeline";
      metrics =
        [
          ("timeline.evaluate_s", "s"); ("timeline.evaluate_calls", "count");
          ("timeline.lower_bound_s", "s");
        ];
      moves = "zoo-compile only; under 0.1% of it, unresolvable end to end";
      flat = "zoo-observe, serve-warm";
    };
    {
      modules = "Elk.Sharding / Elk.Opsplit, Elk.Program";
      metrics = [ ("sharding.shard_s", "s"); ("program.lower_s", "s") ];
      moves = "zoo-compile (under 1%)";
      flat = "zoo-observe";
    };
    {
      modules = "Elk_verify.Verify";
      metrics = [ ("verify.check_s", "s"); ("verify.warnings", "count") ];
      moves = "round_best_s serve-warm, through the gate on each hit";
      flat = "zoo-observe";
    };
    {
      modules = "Elk.Compilecache";
      metrics =
        [
          ("compilecache.probe_s", "s"); ("compilecache.hits", "count");
          ("compilecache.misses", "count");
        ];
      moves = "round_best_s serve-warm";
      flat = "zoo-observe";
    };
    {
      modules = "Elk_sim.Sim";
      metrics =
        [
          ("sim.run_s", "s"); ("sim.runs", "count"); ("sim.events", "count");
          ("sim.events_per_s", "1/s");
        ];
      moves = "round_best_s serve-warm";
      flat = "zoo-compile";
    };
    {
      modules = "recorders: Critpath events, Memtrace, Noctrace";
      metrics =
        [
          ("sim.recorded_s", "s"); ("sim.overhead.events", "x"); ("sim.overhead.mem", "x");
          ("sim.overhead.noc", "x");
        ];
      moves = "round_best_s zoo-observe";
      flat = "serve-warm, zoo-compile";
    };
    {
      modules = "Elk_analyze.Nocprof / Memprof, Elk_sim.Critpath / Perfcore";
      metrics =
        [
          ("nocprof.analyze_s", "s"); ("nocprof.check_s", "s"); ("memprof.analyze_s", "s");
          ("memprof.check_s", "s"); ("critpath.extract_s", "s"); ("critpath.check_s", "s");
          ("perfcore.check_s", "s");
        ];
      moves = "round_best_s zoo-observe";
      flat = "serve-warm, zoo-compile";
    };
    {
      modules = "Elk_serve.Frontend / Serve / Slo";
      metrics =
        [
          ("frontend.run_s", "s"); ("frontend.batches", "count");
          ("frontend.shapes", "count"); ("slo.report_s", "s"); ("slo.ttft_p90_ms", "ms");
          ("slo.itl_p99_ms", "ms"); ("slo.goodput", "frac");
        ];
      moves = "round_best_s serve-warm";
      flat = "zoo-compile, zoo-observe";
    };
    {
      modules = "Elk_cost.Costmodel";
      metrics = [ ("costmodel.train_s", "s") ];
      moves = "setup_s, all workloads";
      flat = "round_best_s";
    };
    {
      modules = "process";
      metrics = [ ("gc.minor_words", "words"); ("other_s", "s"); ("trace.overhead", "x") ];
      moves = "peak_heap_mb";
      flat = "-";
    };
  ]

(* Every per-layer metric with its unit, in table order. *)
let units = List.concat_map (fun l -> l.metrics) table

(* The metric each span's self time is booked to.  Spans the benchmark
   opens are named after their metric; the rest are the spans the library
   already emits: [allocate] inside [Scheduler.run], and those of the
   serving path, which the benchmark reaches only through another layer.
   A [sim-run] opened inside a recorded simulation belongs to the
   recorders. *)
let metric_of_span ~name ~parent =
  match name with
  | "sharding.shard" | "sharding.split" | "sharding.allreduce" -> "sharding.shard_s"
  | "scheduler.run" | "allocate" -> "scheduler.run_s"
  | "partition.enum" -> "partition.enum_s"
  | "reorder.orders" -> "reorder.orders_s"
  | "timeline.evaluate" -> "timeline.evaluate_s"
  | "timeline.lower_bound" -> "timeline.lower_bound_s"
  | "program.lower" -> "program.lower_s"
  | "verify.check" -> "verify.check_s"
  | "compile" | "compile.cache" -> "compilecache.probe_s"
  | "sim.run" -> "sim.run_s"
  | "sim-run" when parent = Some "sim.recorded" -> "sim.recorded_s"
  | "sim-run" -> "sim.run_s"
  | "sim.recorded" -> "sim.recorded_s"
  | "frontend.run" | "serve-plan" | "serve-prefill-plan" -> "frontend.run_s"
  | other -> other ^ "_s"

(* Self time of every span (its duration minus its children's), summed per
   metric.  Spans come from one domain; a parent sorts before its children
   by (start, depth), and a child's depth is its parent's plus one. *)
let self_times (recorded : Elk_obs.Span.t list) =
  let open Elk_obs.Span in
  let sorted =
    List.sort
      (fun a b -> compare (a.start, a.depth, a.seq) (b.start, b.depth, b.seq))
      recorded
  in
  let acc = Hashtbl.create 32 in
  let book (s, children) parent =
    let m = metric_of_span ~name:s.name ~parent in
    let prev = Option.value (Hashtbl.find_opt acc m) ~default:0. in
    Hashtbl.replace acc m (prev +. s.dur -. children)
  in
  (* stack of (span, summed child durations), innermost first *)
  let rec pop_to depth = function
    | (s, children) :: rest when s.depth >= depth ->
        book (s, !children) (match rest with (p, _) :: _ -> Some p.name | [] -> None);
        pop_to depth rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack s ->
        let stack = pop_to s.depth stack in
        (match stack with (_, children) :: _ -> children := !children +. s.dur | [] -> ());
        (s, ref 0.) :: stack)
      [] sorted
  in
  ignore (pop_to 0 stack);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* The traced-run report: each layer's self times and counts next to the
   prediction of the layer table. *)
let print_report ~workload ~round_s metrics =
  Printf.printf "\ntraced run: %s (traced round %.6f s)\n" workload round_s;
  List.iter
    (fun l ->
      Printf.printf "%s  [moves: %s | flat: %s]\n" l.modules l.moves l.flat;
      List.iter
        (fun (name, _) ->
          match List.find_opt (fun (n, _, _) -> n = name) metrics with
          | Some (_, v, unit) -> Printf.printf "    %-24s %14.6g %s\n" name v unit
          | None -> ())
        l.metrics)
    table
