(* Elk_obs: metrics registry, span tracer, exporters, and the shared JSON
   escaping used by the Chrome-trace writers. *)

module Obs = Elk_obs

(* Every test runs with a clean, enabled collector and restores the
   disabled default afterwards so later suites keep the no-op fast path. *)
let with_obs f () =
  Obs.Control.enable ();
  Obs.Metrics.reset ();
  Obs.Span.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.disable ();
      Obs.Metrics.reset ();
      Obs.Span.clear ())
    f

let test_escape () =
  Alcotest.(check string)
    "quotes, backslashes, named escapes" "a\\\"b\\\\c\\nd\\te"
    (Obs.Jsonx.escape "a\"b\\c\nd\te");
  Alcotest.(check string) "control chars" "\\u0001\\u001f" (Obs.Jsonx.escape "\x01\x1f");
  Alcotest.(check string) "quote wraps" "\"x\"" (Obs.Jsonx.quote "x");
  Alcotest.(check string) "integral number" "42" (Obs.Jsonx.number 42.);
  Alcotest.(check string) "non-finite is null" "null" (Obs.Jsonx.number Float.nan)

let test_counters_and_gauges () =
  Obs.Metrics.incr "c" ~by:2.;
  Obs.Metrics.incr "c";
  Obs.Metrics.set "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "counter" (Some 3.) (Obs.Metrics.counter_value "c");
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 2.5) (Obs.Metrics.gauge_value "g");
  Alcotest.(check (option (float 1e-9))) "absent" None (Obs.Metrics.counter_value "nope")

let test_histogram_percentiles () =
  for i = 1 to 1000 do
    Obs.Metrics.observe "lat" (float_of_int i /. 1000.)
  done;
  let count, sum, mn, mx = Option.get (Obs.Metrics.histogram_stats "lat") in
  Alcotest.(check int) "count" 1000 count;
  Alcotest.(check (float 1e-6)) "sum" 500.5 sum;
  Alcotest.(check (float 1e-9)) "min" 0.001 mn;
  Alcotest.(check (float 1e-9)) "max" 1.0 mx;
  let p q = Option.get (Obs.Metrics.percentile "lat" q) in
  (* Power-of-two buckets: estimates are within one bucket (factor 2). *)
  Alcotest.(check bool) "p50 near 0.5" true (p 50. > 0.25 && p 50. < 1.0);
  Alcotest.(check bool) "p99 near 0.99" true (p 99. > 0.5 && p 99. <= 1.0);
  Alcotest.(check bool) "monotone" true (p 10. <= p 50. && p 50. <= p 90. && p 90. <= p 99.);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 0.001 (p 0.);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 1.0 (p 100.)

let test_empty_histogram_guards () =
  (* An existing but empty histogram answers 0 — never nan, never an
     exception — while absent names keep answering None. *)
  Obs.Metrics.observe "e" 0.25;
  Obs.Metrics.reset_histogram "e";
  Alcotest.(check (option (float 0.))) "p50 of empty" (Some 0.)
    (Obs.Metrics.percentile "e" 50.);
  Alcotest.(check (option (float 0.))) "p99.9 of empty" (Some 0.)
    (Obs.Metrics.percentile "e" 99.9);
  (match Obs.Metrics.histogram_stats "e" with
  | Some (count, sum, mn, mx) ->
      Alcotest.(check int) "count" 0 count;
      Alcotest.(check (float 0.)) "sum" 0. sum;
      Alcotest.(check (float 0.)) "min" 0. mn;
      Alcotest.(check (float 0.)) "max" 0. mx
  | None -> Alcotest.fail "stats must exist for an empty histogram");
  Alcotest.(check (option (float 0.))) "absent stays None" None
    (Obs.Metrics.percentile "nope" 50.)

let test_histogram_reset_reuse () =
  (* reset_histogram forgets the previous run completely, so percentile
     queries after a second run describe that run alone. *)
  Obs.Metrics.observe "r" 1.0;
  Obs.Metrics.observe "r" 2.0;
  Obs.Metrics.reset_histogram "r";
  Obs.Metrics.observe "r" 4.0;
  let count, sum, mn, mx = Option.get (Obs.Metrics.histogram_stats "r") in
  Alcotest.(check int) "count sees only the new run" 1 count;
  Alcotest.(check (float 1e-9)) "sum sees only the new run" 4.0 sum;
  Alcotest.(check (float 1e-9)) "min is the new observation" 4.0 mn;
  Alcotest.(check (float 1e-9)) "max is the new observation" 4.0 mx;
  Alcotest.(check (float 1e-9)) "p100 clamps to the new max" 4.0
    (Option.get (Obs.Metrics.percentile "r" 100.));
  (* Resetting a name that is not a histogram leaves it untouched. *)
  Obs.Metrics.incr "rc";
  Obs.Metrics.reset_histogram "rc";
  Alcotest.(check (option (float 0.))) "counter untouched" (Some 1.)
    (Obs.Metrics.counter_value "rc");
  Obs.Metrics.reset_histogram "never-registered"

let test_span_nesting () =
  let v =
    Obs.Span.with_span "outer" (fun () ->
        Obs.Span.with_span "inner1" (fun () -> ());
        Obs.Span.with_span "inner2" ~attrs:[ ("k", "v") ] (fun () -> ());
        17)
  in
  Alcotest.(check int) "value returned" 17 v;
  let spans = Obs.Span.spans () in
  Alcotest.(check (list string)) "completion order"
    [ "inner1"; "inner2"; "outer" ]
    (List.map (fun s -> s.Obs.Span.name) spans);
  let by_name n = List.find (fun s -> s.Obs.Span.name = n) spans in
  let outer = by_name "outer" and i1 = by_name "inner1" and i2 = by_name "inner2" in
  Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
  Alcotest.(check int) "inner depth" 1 i1.Obs.Span.depth;
  Alcotest.(check bool) "inner1 contained" true
    (outer.Obs.Span.start <= i1.Obs.Span.start
    && i1.Obs.Span.start +. i1.Obs.Span.dur
       <= outer.Obs.Span.start +. outer.Obs.Span.dur +. 1e-9);
  Alcotest.(check bool) "inner1 before inner2" true
    (i1.Obs.Span.start <= i2.Obs.Span.start);
  (* totals: ordered by first start, so outer leads. *)
  (match Obs.Span.totals () with
  | (n0, c0, _) :: _ ->
      Alcotest.(check string) "totals leads with outer" "outer" n0;
      Alcotest.(check int) "outer called once" 1 c0
  | [] -> Alcotest.fail "empty totals");
  (* span recorded even when the thunk raises *)
  (try Obs.Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "raising span recorded" 4 (Obs.Span.count ())

let test_prometheus_exporter () =
  Obs.Metrics.incr "elk_test_total" ~by:3. ~help:"a counter";
  Obs.Metrics.set "elk_gauge" 2.5;
  Obs.Metrics.observe "elk_lat" 0.1;
  Obs.Metrics.incr "bad name!";
  let out = Obs.Metrics.to_prometheus () in
  let contains affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  let check_has needle = Alcotest.(check bool) needle true (contains needle out) in
  check_has "# HELP elk_test_total a counter";
  check_has "# TYPE elk_test_total counter";
  check_has "elk_test_total 3";
  check_has "# TYPE elk_gauge gauge";
  check_has "elk_gauge 2.5";
  check_has "# TYPE elk_lat histogram";
  check_has "elk_lat_bucket{le=\"+Inf\"} 1";
  check_has "elk_lat_sum 0.1";
  check_has "elk_lat_count 1";
  (* sanitized name *)
  check_has "bad_name_ 1";
  Alcotest.(check bool) "no raw bad name" false (contains "bad name!" out)

let test_json_exporter () =
  Obs.Metrics.incr "c\"q" ~by:1.;
  Obs.Metrics.observe "h" 0.25;
  let out = Obs.Metrics.to_json () in
  let contains affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped counter name" true (contains "\"c\\\"q\":1" out);
  Alcotest.(check bool) "histogram stats" true (contains "\"count\":1" out);
  Alcotest.(check bool) "has sections" true
    (contains "\"counters\":{" out && contains "\"gauges\":{" out
    && contains "\"histograms\":{" out);
  let balance =
    String.fold_left
      (fun a c -> if c = '{' then a + 1 else if c = '}' then a - 1 else a)
      0 out
  in
  Alcotest.(check int) "braces balanced" 0 balance

let test_disabled_noop () =
  Obs.Control.disable ();
  Obs.Metrics.incr "nc";
  Obs.Metrics.set "ng" 1.;
  Obs.Metrics.observe "nh" 1.;
  let v = Obs.Span.with_span "ns" (fun () -> 5) in
  Alcotest.(check int) "with_span passes through" 5 v;
  Alcotest.(check int) "no spans recorded" 0 (Obs.Span.count ());
  Alcotest.(check (option (float 0.))) "no counter" None (Obs.Metrics.counter_value "nc");
  Alcotest.(check (option (float 0.))) "no gauge" None (Obs.Metrics.gauge_value "ng");
  Alcotest.(check (option (float 0.))) "no histogram" None
    (Obs.Metrics.percentile "nh" 50.);
  Obs.Control.enable ()

(* Trace.chrome_events emits one complete event per nonzero preload and
   per nonzero execute phase, and each is serialized as one X event. *)
let test_trace_event_count () =
  let r = Elk_sim.Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule) in
  let graph = (Lazy.force Tu.tiny_schedule).Elk.Schedule.graph in
  let events = Elk_sim.Trace.chrome_events graph r in
  let json = Obs.Chrome.wrap (Elk_sim.Trace.chrome_meta @ events) in
  let needle = "\"ph\":\"X\"" in
  let n = String.length needle in
  let occurrences = ref 0 in
  for i = 0 to String.length json - n do
    if String.sub json i n = needle then incr occurrences
  done;
  let expected =
    Array.fold_left
      (fun a (o : Elk_sim.Sim.op_trace) ->
        let nonzero d = if d > 0. then 1 else 0 in
        a
        + nonzero (o.pre_end -. o.pre_start)
        + nonzero (o.dist_end -. o.exe_start)
        + nonzero (o.compute_end -. o.dist_end)
        + nonzero (o.exe_end -. o.compute_end))
      0 r.Elk_sim.Sim.per_op
  in
  Alcotest.(check int) "chrome_events length" expected (List.length events);
  Alcotest.(check int) "one serialized X event each" expected !occurrences

let test_logger_levels () =
  let saved = Obs.Logger.level () in
  Obs.Logger.set_level (Some Obs.Logger.Warn);
  Alcotest.(check bool) "warn enabled" true (Obs.Logger.enabled Obs.Logger.Warn);
  Alcotest.(check bool) "error enabled" true (Obs.Logger.enabled Obs.Logger.Error);
  Alcotest.(check bool) "info filtered" false (Obs.Logger.enabled Obs.Logger.Info);
  Obs.Logger.set_level None;
  Alcotest.(check bool) "disabled" false (Obs.Logger.enabled Obs.Logger.Error);
  Alcotest.(check (option string)) "parse" (Some "debug")
    (Option.map Obs.Logger.level_name (Obs.Logger.level_of_string "DEBUG"));
  Alcotest.(check (option string)) "parse warning alias" (Some "warn")
    (Option.map Obs.Logger.level_name (Obs.Logger.level_of_string "warning"));
  Alcotest.(check bool) "reject junk" true (Obs.Logger.level_of_string "loud" = None);
  Obs.Logger.set_level saved

let test_compile_records_phases () =
  let ctx = Lazy.force Tu.default_ctx in
  let pod = Lazy.force Tu.default_pod in
  let options = { Elk.Compile.default_options with max_orders = 2 } in
  let _c = Elk.Compile.compile ~options ctx ~pod (Lazy.force Tu.tiny_llama) in
  let totals = Obs.Span.totals () in
  let phase n = List.exists (fun (name, _, _) -> name = n) totals in
  List.iter
    (fun n -> Alcotest.(check bool) ("phase " ^ n) true (phase n))
    [ "compile"; "shard"; "order-gen"; "schedule"; "allocate"; "timeline-eval" ];
  Alcotest.(check bool) "orders counter set" true
    (Obs.Metrics.counter_value "elk_compile_orders_tried_total" <> None);
  Alcotest.(check bool) "scheduler runs counted" true
    (Obs.Metrics.counter_value "elk_scheduler_runs_total" <> None);
  (* compiler spans export as chrome events alongside a thread label *)
  match Obs.Span.chrome_events () with
  | [] -> Alcotest.fail "no chrome events"
  | meta :: evs ->
      Alcotest.(check bool) "meta labels track" true
        (String.length meta > 0 && List.length evs = List.length (Obs.Span.spans ()))

(* The Jsonx parser must read back everything the emitters write, and
   reject what they never write. *)
let test_jsonx_parser () =
  let module J = Obs.Jsonx in
  let ok s = match J.parse s with Ok v -> v | Error m -> Alcotest.fail m in
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error _ -> ()
  in
  (match ok "{\"a\":[1,2.5e-3,null],\"b\":{\"c\":true}}" with
  | J.Obj _ as v ->
      let nums =
        match J.member "a" v with
        | Some a -> List.map J.to_float (J.to_list a)
        | None -> []
      in
      (match nums with
      | [ Some x; Some y; Some z ] ->
          Alcotest.(check (float 0.)) "int" 1. x;
          Alcotest.(check (float 1e-12)) "exponent" 2.5e-3 y;
          Alcotest.(check bool) "null reads as nan" true (Float.is_nan z)
      | _ -> Alcotest.fail "array shape");
      Alcotest.(check bool) "nested member" true
        (Option.bind (J.member "b" v) (J.member "c") = Some (J.Bool true))
  | _ -> Alcotest.fail "not an object");
  (* escapes round-trip through the emitter's own quoting *)
  let tricky = "a\"b\\c\nd\te\r \x01 é" in
  (match ok ("[" ^ J.quote tricky ^ "]") with
  | J.Arr [ s ] ->
      Alcotest.(check (option string)) "quote round-trips" (Some tricky)
        (J.to_str s)
  | _ -> Alcotest.fail "quote round-trip shape");
  (match ok "\"\\u00e9\\u0041\"" with
  | J.Str s -> Alcotest.(check string) "unicode escapes" "\xc3\xa9A" s
  | _ -> Alcotest.fail "unicode shape");
  (* a real exporter document parses *)
  let r = Elk_sim.Sim.run ~events:true (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule) in
  (match r.Elk_sim.Sim.events with
  | None -> Alcotest.fail "no events"
  | Some ev ->
      let graph = (Lazy.force Tu.tiny_schedule).Elk.Schedule.graph in
      let sum = Elk_sim.Critpath.extract ev in
      (match J.parse (Elk_sim.Critpath.to_json graph sum) with
      | Error m -> Alcotest.fail ("critpath json: " ^ m)
      | Ok v ->
          Alcotest.(check (option (float 1e-12))) "total member"
            (Some sum.Elk_sim.Critpath.total)
            (Option.bind (J.member "total" v) J.to_float)));
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ];
  (* one document per input: a second top-level value is trailing
     garbage, never a silent parse of the first *)
  List.iter bad [ "{} {}"; "{\"a\":1}{}"; "[1][2]"; "null null"; "true,false" ];
  (match J.parse "{} {}" with
  | Error m ->
      Alcotest.(check bool) "error names the offset" true
        (List.exists
           (fun w -> w = "offset")
           (String.split_on_char ' ' m))
  | Ok _ -> Alcotest.fail "accepted: {} {}");
  (* trailing whitespace is not garbage *)
  ignore (ok "  {\"a\":1}  \n\t ")

let suite =
  [
    ("jsonx escaping", `Quick, with_obs test_escape);
    ("jsonx parser", `Quick, with_obs test_jsonx_parser);
    ("counters and gauges", `Quick, with_obs test_counters_and_gauges);
    ("histogram percentiles", `Quick, with_obs test_histogram_percentiles);
    ("empty histogram guards", `Quick, with_obs test_empty_histogram_guards);
    ("histogram reset for reuse", `Quick, with_obs test_histogram_reset_reuse);
    ("span nesting and ordering", `Quick, with_obs test_span_nesting);
    ("prometheus exporter", `Quick, with_obs test_prometheus_exporter);
    ("json exporter", `Quick, with_obs test_json_exporter);
    ("disabled is a no-op", `Quick, with_obs test_disabled_noop);
    ("trace event count consistency", `Quick, with_obs test_trace_event_count);
    ("logger level filtering", `Quick, with_obs test_logger_levels);
    ("compile records phase spans", `Quick, with_obs test_compile_records_phases);
  ]
