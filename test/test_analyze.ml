(* Elk_analyze: dominant-resource classification and report invariants. *)

module A = Elk_analyze.Analyze
module Pc = Elk_sim.Perfcore
module Sim = Elk_sim.Sim

let resource = Alcotest.testable (Fmt.of_to_string A.resource_name) ( = )

let attrib ?(hbm = 0.) ?(ic = 0.) ?(compute = 0.) ?(port = 0.) () =
  { Pc.a_hbm = hbm; a_interconnect = ic; a_compute = compute; a_port = port }

let test_classify_synthetic () =
  (* Hand-built attributions with one clearly dominant bucket. *)
  Alcotest.check resource "clearly HBM-bound" A.Hbm
    (A.classify (attrib ~hbm:8e-3 ~ic:1e-4 ~compute:2e-4 ()));
  Alcotest.check resource "clearly interconnect-bound" A.Interconnect
    (A.classify (attrib ~ic:5e-3 ~hbm:1e-4 ~compute:1e-3 ~port:2e-4 ()));
  Alcotest.check resource "compute-bound" A.Compute
    (A.classify (attrib ~compute:9e-3 ~ic:1e-3 ()));
  Alcotest.check resource "port-bound" A.Port
    (A.classify (attrib ~port:3e-3 ~compute:1e-3 ()))

let test_classify_edge_cases () =
  (* No attributed time at all, and exact ties, both read as compute. *)
  Alcotest.check resource "all-zero defaults to compute" A.Compute
    (A.classify (attrib ()));
  Alcotest.check resource "tie with compute goes to compute" A.Compute
    (A.classify (attrib ~hbm:1e-3 ~compute:1e-3 ()))

let result =
  lazy (Sim.run (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))

let report =
  lazy
    (let s = Lazy.force Tu.tiny_schedule in
     A.analyze ~top:4 s (Lazy.force result))

let test_report_invariants () =
  let r = Lazy.force result and rep = Lazy.force report in
  Tu.check_rel "resource totals sum to makespan" ~tolerance:1e-6 r.Sim.total
    (List.fold_left (fun acc (_, t) -> acc +. t) 0. rep.A.resource_totals);
  List.iter
    (fun (res, h) ->
      Alcotest.(check bool)
        (A.resource_name res ^ " headroom bounded")
        true
        (h >= 0. && h <= r.Sim.total +. 1e-12))
    rep.A.headroom;
  Alcotest.(check int) "mix covers every operator"
    (Array.length rep.A.ops)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rep.A.mix);
  Alcotest.(check int) "top-k cores bounded" 4 (List.length rep.A.top_cores);
  Alcotest.(check bool) "imbalance >= 1" true (rep.A.imbalance >= 1.);
  (* top cores come out busiest-first *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> Pc.busy a.A.buckets >= Pc.busy b.A.buckets && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "cores sorted by busy" true (sorted rep.A.top_cores)

let test_exports () =
  let rep = Lazy.force report in
  let json = A.to_json rep in
  let contains n h =
    let nl = String.length n and hl = String.length h in
    let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) ("json has " ^ key) true (contains key json))
    [
      "\"total\""; "\"imbalance\""; "\"resource_seconds\""; "\"headroom_latency\"";
      "\"mix\""; "\"top_cores\""; "\"ops\""; "\"bandwidth\"";
    ];
  Alcotest.(check int) "five tables" 5 (List.length (A.tables rep));
  let counters = A.chrome_counter_events ~bins:16 rep in
  Alcotest.(check bool) "counter events present" true (counters <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "is a C event" true (contains "\"ph\":\"C\"" ev))
    counters

(* Degenerate single-operator model: one tiny matmul leaves most buckets
   at exactly zero, which is where an unguarded share/headroom division
   turns into nan and leaks into the JSON as null. *)
let test_degenerate_single_op () =
  let b = Elk_model.Graph.builder ~name:"degenerate" in
  let _ =
    Elk_model.Graph.add b ~role:"lm_head"
      (Elk_tensor.Opspec.matmul ~name:"only" ~m:4 ~n:64 ~k:64 ())
  in
  let g = Elk_model.Graph.finish b in
  let ctx = Lazy.force Tu.default_ctx in
  let s = Elk.Scheduler.run ctx g in
  let r = Sim.run ~events:true ctx s in
  let rep = A.analyze s r in
  (* Jsonx.number renders non-finite floats as null, so a nan/inf that
     escaped a guard shows up as a ":null" value in the document. *)
  let no_bad what str =
    let contains n h =
      let nl = String.length n and hl = String.length h in
      let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (what ^ " free of null") false (contains ":null" str);
    Alcotest.(check bool) (what ^ " free of inf") false (contains "inf" str)
  in
  no_bad "analyze json" (A.to_json rep);
  List.iter
    (fun (res, h) ->
      Alcotest.(check bool)
        (A.resource_name res ^ " headroom finite")
        true
        (Float.is_finite h && h >= 0.))
    rep.A.headroom;
  Alcotest.(check bool) "imbalance finite" true (Float.is_finite rep.A.imbalance);
  (* The slack-aware cross-check must hold on degenerate models too. *)
  match r.Sim.events with
  | None -> Alcotest.fail "no events"
  | Some ev -> (
      let sum = Elk_sim.Critpath.extract ev in
      no_bad "critpath json" (Elk_sim.Critpath.to_json g sum);
      match A.headroom_check rep sum with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

(* Slack-aware headroom: the causal chain bounds how much of each
   resource's attributed time is actually load-bearing, so the
   slack-aware estimate can never promise more latency reduction than
   the chain spends on that resource. *)
let test_slack_headroom () =
  let r = Lazy.force (lazy (Sim.run ~events:true (Lazy.force Tu.default_ctx) (Lazy.force Tu.tiny_schedule))) in
  let s = Lazy.force Tu.tiny_schedule in
  let rep = A.analyze ~top:4 s r in
  match r.Sim.events with
  | None -> Alcotest.fail "no events"
  | Some ev ->
      let sum = Elk_sim.Critpath.extract ev in
      (match A.headroom_check rep sum with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      List.iter
        (fun (res, attrib_h, slack_h) ->
          Alcotest.(check bool)
            (A.resource_name res ^ " slack-aware headroom bounded")
            true
            (Float.is_finite slack_h && slack_h >= 0.
            && slack_h <= rep.A.total +. 1e-12
            && attrib_h >= 0.))
        (A.slack_headroom rep sum)

(* Every recorder is pure bookkeeping: forcing all three on must leave
   the simulated timeline, and so the whole report, byte-identical. *)
let test_recording_is_inert () =
  List.iter
    (fun (topo, ctx, sched) ->
      let ctx = Lazy.force ctx and s = Lazy.force sched in
      let json r = A.to_json (A.analyze s r) in
      Alcotest.(check string)
        (topo ^ ": report unchanged by recording")
        (json (Sim.run ctx s))
        (json (Sim.run ~events:true ~mem:true ~noc:true ctx s)))
    [ ("a2a", Tu.default_ctx, Tu.tiny_schedule); ("mesh", Tu.mesh_ctx, Tu.mesh_schedule) ]

(* ---- the snapshot core ---------------------------------------------- *)

module Td = Elk_analyze.Tracediff
module J = Elk_obs.Jsonx

let round6 v = float_of_string (Printf.sprintf "%.6g" v)

(* The layout the memory, interconnect and SLO snapshots wrote by hand
   before [Tracediff.core_fields] (each with its resource name as a
   literal): the reference the one writer must keep byte for byte. *)
let printf_core ~total ~dominant ~resources ~segments =
  let g v = J.number (round6 v) in
  let seg (s : Td.segment) =
    Printf.sprintf "{\"name\":%s,\"kind\":%s,\"resource\":%s,\"dur\":%s}"
      (J.quote s.name) (J.quote s.kind) (J.quote s.resource) (g s.dur)
  in
  String.concat ""
    [
      Printf.sprintf "\"total\":%s,\"dominant\":%s," (g total) (J.quote dominant);
      Printf.sprintf "\"resource_seconds\":{%s},"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (J.quote k) (g v)) resources));
      Printf.sprintf "\"segments\":[%s]" (String.concat "," (List.map seg segments));
    ]

(* Random cores: names with quotes, backslashes, control characters and
   non-ASCII bytes (no '/', the reader's key separator), drawn from small
   pools so segment keys repeat; numbers that sit on the 6th digit's
   rounding edge, tiny, huge, integral and negative.  [core_fields] must
   equal the reference layout, and [Tracediff.diff] of a document
   carrying it against itself must read back the rounded numbers, give
   zero deltas, and aggregate the segments by (name, kind, resource) in
   first-seen order. *)
let qcheck_core_fields =
  let open QCheck2.Gen in
  let name =
    string_size (int_range 0 5)
      ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '\127'; '\200' ])
  in
  let num =
    oneof
      [
        float_range (-1e3) 1e3;
        map (fun (m, e) -> m *. (10. ** float_of_int e)) (pair (float_range 1. 10.) (int_range (-300) 300));
        oneofl
          [ 0.; 1.2345649999; 1.2345650001; 999999.5; 9999995.; 123456.5; 1e15; 1e-300; 5e-7 ];
        map float_of_int (int_range (-1_000_000) 1_000_000);
      ]
  in
  let core =
    let* pool = list_size (int_range 1 3) name in
    let* total = num and* dominant = name in
    let* resources = list_size (int_range 0 3) (pair name num) in
    let* segments =
      list_size (int_range 0 8)
        (map
           (fun (((name, kind), resource), dur) -> { Td.name; kind; resource; dur })
           (pair (pair (pair (oneofl pool) (oneofl pool)) (oneofl pool)) num))
    in
    (* Resource keys are unique in every snapshot the views write. *)
    let resources =
      List.fold_left
        (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
        [] resources
    in
    pure (total, dominant, resources, segments)
  in
  let print (total, dominant, resources, segments) =
    Printf.sprintf "total %h, dominant %S, resources [%s], segments [%s]" total dominant
      (String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S %h" k v) resources))
      (String.concat "; "
         (List.map
            (fun (s : Td.segment) -> Printf.sprintf "%S/%S/%S %h" s.name s.kind s.resource s.dur)
            segments))
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:300 ~print
       ~name:"tracediff: the core writer keeps the hand-written layout" core
       (fun (total, dominant, resources, segments) ->
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         let fields = Td.core_fields ~total ~dominant ~resources ~segments in
         if String.concat "," fields <> printf_core ~total ~dominant ~resources ~segments
         then fail "core_fields differs from the reference layout";
         let doc =
           J.obj
             ((J.field "model" (J.quote "m") :: fields) @ [ J.field "series" (J.obj []) ])
         in
         match Td.diff ~old_json:doc ~new_json:doc with
         | Error m -> fail "diff of a core against itself failed: %s" m
         | Ok d ->
             let key (s : Td.segment) = Printf.sprintf "%s/%s/%s" s.name s.kind s.resource in
             let want =
               List.fold_left
                 (fun acc s ->
                   let k = key s and v = round6 s.Td.dur in
                   match List.assoc_opt k acc with
                   | Some cur -> List.map (fun (k', c) -> (k', if k' = k then cur +. v else c)) acc
                   | None -> acc @ [ (k, v) ])
                 [] segments
             in
             let read entries = List.map (fun e -> (e.Td.key, e.Td.v_old)) entries in
             if d.Td.total_old <> round6 total then fail "total %h read back as %h" total d.Td.total_old;
             if d.Td.dominant_old <> dominant then fail "dominant read back as %S" d.Td.dominant_old;
             if read d.Td.resources <> List.map (fun (k, v) -> (k, round6 v)) resources then
               fail "resources read back differently";
             if read d.Td.segments <> want then fail "segments not aggregated in first-seen order";
             List.for_all (fun e -> Td.delta e = 0.) (d.Td.resources @ d.Td.segments)
             && d.Td.total_new -. d.Td.total_old = 0.
             && not (Td.regressed ~threshold:0. d))

let suite =
  [
    ("classify: synthetic dominant buckets", `Quick, test_classify_synthetic);
    ("classify: ties and zeros", `Quick, test_classify_edge_cases);
    ("report invariants on a real run", `Quick, test_report_invariants);
    ("json/table/counter exports", `Quick, test_exports);
    ("degenerate single-op model stays finite", `Quick, test_degenerate_single_op);
    ("slack-aware headroom cross-check", `Quick, test_slack_headroom);
    ("recorders leave the report byte-identical", `Quick, test_recording_is_inert);
    qcheck_core_fields;
  ]
