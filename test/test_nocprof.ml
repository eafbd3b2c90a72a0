(* Interconnect observability: Noctrace recording and the Nocprof
   report that cross-checks it against the static Load mirror,
   Perfcore's port attribution and the simulator's per-op port
   waits. *)

module Nt = Elk_sim.Noctrace
module Np = Elk_analyze.Nocprof
module N = Elk_noc.Noc

let ctx () = Lazy.force Tu.default_ctx
let sched () = Lazy.force Tu.tiny_schedule
let mctx () = Lazy.force Tu.mesh_ctx
let msched () = Lazy.force Tu.mesh_schedule

let result = lazy (Elk_sim.Sim.run ~noc:true (ctx ()) (sched ()))
let report = lazy (Np.analyze (sched ()) (Lazy.force result))

let mresult = lazy (Elk_sim.Sim.run ~noc:true (mctx ()) (msched ()))

let mreport = lazy (Np.analyze (msched ()) (Lazy.force mresult))

(* Recording is opt-in and pure bookkeeping: off-mode runs carry no
   record, and the simulated timeline is identical either way. *)
let test_off_by_default () =
  let r = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  Alcotest.(check bool) "no record" true (r.Elk_sim.Sim.noc = None)

let test_zero_cost () =
  let r_off = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  let r_on = Lazy.force result in
  Tu.check_float "total identical" r_off.Elk_sim.Sim.total
    r_on.Elk_sim.Sim.total;
  Alcotest.(check bool) "record present" true (r_on.Elk_sim.Sim.noc <> None)

let test_zero_cost_mesh () =
  let r_off = Elk_sim.Sim.run ~noc:false (mctx ()) (msched ()) in
  let r_on = Lazy.force mresult in
  Tu.check_float "total identical" r_off.Elk_sim.Sim.total
    r_on.Elk_sim.Sim.total

(* The interconnect invariants, as `elk noc` enforces them, on both
   fabrics. *)
let test_check_passes () =
  match Np.check (Lazy.force report) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "check failed: %s" m

let test_check_passes_mesh () =
  match Np.check (Lazy.force mreport) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "mesh check failed: %s" m

(* On the all-to-all and mesh chips the distribution and exchange rings
   do not queue (no zoo plan shows a non-zero wait), so there the
   port-wait reconciliation compares zeros.  The clustered GPU-style
   chip (paper §7) routes them through one shared L2 fabric, where they
   do queue: the check must hold with non-zero per-phase waits too. *)
let test_check_passes_clustered () =
  let ctx =
    Elk_partition.Partition.make_ctx
      (Elk_cost.Costmodel.train ~samples_per_kind:150
         (Elk_arch.Arch.Presets.gpu_like_chip ()))
  in
  let s = Elk.Scheduler.run ctx (Lazy.force Tu.tiny_llama_chip_graph) in
  let r = Elk_sim.Sim.run ~noc:true ctx s in
  (match Np.check (Np.analyze s r) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "clustered check failed: %s" m);
  Alcotest.(check bool) "some per-phase port wait is non-zero" true
    (Array.exists
       (fun (o : Elk_sim.Sim.op_trace) ->
         o.Elk_sim.Sim.dist_wait > 0. || o.Elk_sim.Sim.ex_wait > 0.)
       r.Elk_sim.Sim.per_op)

(* Dynamic per-link volumes equal the static mirror's, link by link. *)
let test_static_mirror_exact () =
  let rep = Lazy.force mreport in
  Alcotest.(check bool) "has links" true (rep.Np.rows <> []);
  List.iter
    (fun (r : Np.link_row) ->
      Tu.check_rel r.Np.l_name ~tolerance:1e-9 r.Np.l_static r.Np.l_volume)
    rep.Np.rows

(* Recorded class totals equal the schedule-side expectations. *)
let test_class_totals () =
  let rep = Lazy.force report in
  Tu.check_rel "preload bytes" ~tolerance:1e-9 rep.Np.expect_pre
    rep.Np.pre_bytes;
  Tu.check_rel "distribute bytes" ~tolerance:1e-9 rep.Np.expect_dist
    rep.Np.dist_bytes;
  Tu.check_rel "exchange bytes" ~tolerance:1e-9 rep.Np.expect_ex
    rep.Np.ex_bytes

(* Queueing waits recomputed from the trace coincide with Perfcore's
   per-op port bucket — the acceptance criterion's 1e-6 sum check. *)
let test_port_attrib_matches_perfcore () =
  let rep = Lazy.force report in
  Array.iteri
    (fun op (recomputed, perfcore) ->
      Tu.check_close ~eps:1e-6
        (Printf.sprintf "op %d port attribution" op)
        perfcore recomputed)
    rep.Np.port_attrib

(* The hop histogram partitions the transfers: counts sum to the number
   of transfers, bytes to the total transfer volume. *)
let test_hop_histogram_partitions () =
  let t = Option.get (Lazy.force result).Elk_sim.Sim.noc in
  let rows = Nt.hop_histogram t in
  let n = List.fold_left (fun a (_, c, _) -> a + c) 0 rows in
  let b = List.fold_left (fun a (_, _, v) -> a +. v) 0. rows in
  Alcotest.(check int) "transfer count" (Nt.num_transfers t) n;
  Tu.check_rel "transfer bytes" ~tolerance:1e-9 (Nt.total_transfer_bytes t) b;
  let rec mono = function
    | (h1, _, _) :: ((h2, _, _) :: _ as rest) -> h1 < h2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by hops" true (mono rows)

(* Per-link stats are canonically ordered and tie out against the raw
   bookings. *)
let test_link_stats_consistent () =
  let t = Option.get (Lazy.force mresult).Elk_sim.Sim.noc in
  let stats = Nt.link_stats t in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        N.compare_link a.Nt.ls_link b.Nt.ls_link < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "canonical order" true (sorted stats);
  let booked =
    Array.fold_left (fun a b -> a +. b.Nt.b_bytes) 0. (Nt.bookings t)
  in
  let stat_vol = List.fold_left (fun a s -> a +. s.Nt.ls_volume) 0. stats in
  Tu.check_rel "volumes tie out" ~tolerance:1e-9 booked stat_vol;
  List.iter
    (fun s ->
      Tu.check_close ~eps:1e-6 "class split sums to volume"
        s.Nt.ls_volume
        (s.Nt.ls_preload +. s.Nt.ls_distribute +. s.Nt.ls_exchange))
    stats

(* Busy intervals are chronological and non-overlapping within a
   class. *)
let test_busy_intervals_sane () =
  let t = Option.get (Lazy.force result).Elk_sim.Sim.noc in
  let ix = Nt.index t in
  List.iter
    (fun s ->
      let pre, ex =
        Nt.busy_intervals ix ~link:(N.link_id (Nt.noc t) s.Nt.ls_link)
      in
      let check_ivs name ivs =
        let rec go = function
          | (s1, e1) :: (((s2, _) :: _) as rest) ->
              if e1 > s2 +. 1e-9 then
                Alcotest.failf "%s: overlap [%g,%g] then %g" name s1 e1 s2;
              go rest
          | [ (s1, e1) ] ->
              Alcotest.(check bool) "well formed" true (e1 >= s1)
          | [] -> ()
        in
        go ivs
      in
      check_ivs "preload" pre;
      check_ivs "exec" ex)
    (Nt.link_stats t)

(* Mesh topologies render a heatmap; all-to-all has no 2D layout. *)
let test_heatmap () =
  Alcotest.(check bool) "mesh has heatmap" true
    (Np.heatmap (Lazy.force mreport) <> None);
  Alcotest.(check bool) "a2a has none" true
    (Np.heatmap (Lazy.force report) = None)

(* The JSON snapshot is deterministic: two independent simulations of
   the same schedule serialize to the same bytes. *)
let test_json_deterministic () =
  let mk () =
    let r = Elk_sim.Sim.run ~noc:true (ctx ()) (sched ()) in
    Np.to_json ~top:6 (Np.analyze (sched ()) r)
  in
  Alcotest.(check string) "byte-identical" (mk ()) (mk ())

let test_analyze_requires_record () =
  let r = Elk_sim.Sim.run ~noc:false (ctx ()) (sched ()) in
  Alcotest.check_raises "needs record"
    (Invalid_argument
       "Nocprof.analyze: simulator run has no interconnect record (run with \
        ~noc:true)")
    (fun () -> ignore (Np.analyze (sched ()) r))

(* A path transfer stands for its bookings: one per path link, in path
   order, placed among explicit bookings where it was recorded. *)
let test_path_bookings_in_order () =
  let noc = N.create (Elk_arch.Arch.Presets.scaled_chip ~topology_kind:`Mesh ()) in
  let nt = Nt.create noc in
  let eff = Array.init (N.num_links noc) (fun id -> float_of_int (id + 1)) in
  let p = N.path noc ~src:(N.Hbm 0) ~dst:(N.Core 27) in
  let first = N.link_id noc (N.Edge { from_core = 1; to_core = 2 }) in
  let last = N.link_id noc (N.Edge { from_core = 2; to_core = 3 }) in
  Nt.record_booking nt ~cls:Nt.Exchange ~op:0 ~link:first ~bytes:1. ~t_start:0. ~t_end:1.;
  Nt.record_path nt ~cls:Nt.Preload ~op:1 p ~eff ~bytes:64. ~wait:0. ~t_start:2. ~t_end:9.;
  Nt.record_booking nt ~cls:Nt.Exchange ~op:2 ~link:last ~bytes:1. ~t_start:3. ~t_end:4.;
  let hops = Array.length p.N.ids in
  Alcotest.(check int) "bookings" (hops + 2) (Nt.num_bookings nt);
  let b = Nt.bookings nt in
  Alcotest.(check int) "view length" (hops + 2) (Array.length b);
  Alcotest.(check bool) "explicit first" true (b.(0).Nt.b_link = N.link_of_id noc first);
  Array.iteri
    (fun k id ->
      let bk = b.(k + 1) in
      Alcotest.(check bool) "path link" true (bk.Nt.b_link = N.link_of_id noc id);
      Alcotest.(check int) "op" 1 bk.Nt.b_op;
      Tu.check_float "start" 2. bk.Nt.b_start;
      Tu.check_float "end" (2. +. (64. /. eff.(id))) bk.Nt.b_end)
    p.N.ids;
  Alcotest.(check bool) "explicit last" true
    (b.(hops + 1).Nt.b_link = N.link_of_id noc last);
  Alcotest.(check bool) "one transfer of the path's length" true
    (Nt.hop_histogram nt = [ (hops, 1, 64.) ])

(* ---- check rejects a doctored record ------------------------------ *)

(* Record one more booking or transfer into a fresh all-to-all run
   through the public recorder, then analyze: [check] must fail and name
   [what] it was doctored at. *)
let rejects ~doctor =
  let r = Elk_sim.Sim.run ~noc:true (ctx ()) (sched ()) in
  let nt = Option.get r.Elk_sim.Sim.noc in
  let what = doctor nt r in
  match Np.check (Np.analyze (sched ()) r) with
  | Ok () -> Alcotest.failf "check accepted a record doctored at %s" what
  | Error m ->
      let contains n h =
        let ln = String.length n and lh = String.length h in
        let rec go i = i + ln <= lh && (String.sub h i ln = n || go (i + 1)) in
        go 0
      in
      if not (contains what m) then Alcotest.failf "error %S does not name %s" m what

(* The real booking that holds its link longest: check's overlap
   tolerance is 1e-6 s on sub-second makespans. *)
let long_booking nt =
  Array.fold_left
    (fun best b ->
      if b.Nt.b_end -. b.Nt.b_start > best.Nt.b_end -. best.Nt.b_start then b else best)
    (Nt.bookings nt).(0) (Nt.bookings nt)

let test_rejects_overlap () =
  rejects ~doctor:(fun nt _ ->
      let b = long_booking nt in
      let mid = (b.Nt.b_start +. b.Nt.b_end) /. 2. in
      Nt.record_booking nt ~cls:b.Nt.b_cls ~op:b.Nt.b_op
        ~link:(N.link_id (Nt.noc nt) b.Nt.b_link) ~bytes:0. ~t_start:mid
        ~t_end:mid;
      N.link_name b.Nt.b_link)

let test_rejects_excess_wait () =
  rejects ~doctor:(fun nt r ->
      let per_op = r.Elk_sim.Sim.per_op in
      let phase (o : Elk_sim.Sim.op_trace) =
        if o.Elk_sim.Sim.dist_end > o.Elk_sim.Sim.exe_start then
          Some (Nt.Distribute, o.Elk_sim.Sim.dist_end -. o.Elk_sim.Sim.exe_start)
        else if o.Elk_sim.Sim.exe_end > o.Elk_sim.Sim.compute_end then
          Some (Nt.Exchange, o.Elk_sim.Sim.exe_end -. o.Elk_sim.Sim.compute_end)
        else None
      in
      match Array.find_mapi (fun op o -> Option.map (fun p -> (op, p)) (phase o)) per_op with
      | None -> Alcotest.fail "no op with a distribute or exchange phase"
      | Some (op, (cls, len)) ->
          let o = per_op.(op) in
          let wait = Float.max o.Elk_sim.Sim.dist_wait o.Elk_sim.Sim.ex_wait +. (len /. 2.) in
          Nt.record_transfer nt ~cls ~op ~src:(N.Core 1) ~dst:(N.Core 0) ~bytes:0.
            ~hops:2 ~wait ~t_start:o.Elk_sim.Sim.exe_start
            ~t_end:o.Elk_sim.Sim.exe_end;
          Printf.sprintf "op %d:" op)

let test_rejects_extra_bytes () =
  rejects ~doctor:(fun nt r ->
      let b = long_booking nt in
      let total = r.Elk_sim.Sim.total in
      Nt.record_booking nt ~cls:b.Nt.b_cls ~op:b.Nt.b_op
        ~link:(N.link_id (Nt.noc nt) b.Nt.b_link) ~bytes:1024. ~t_start:total
        ~t_end:total;
      N.link_name b.Nt.b_link)

let suite =
  [
    Alcotest.test_case "noc recording off by default" `Quick test_off_by_default;
    Alcotest.test_case "recording does not perturb the timeline" `Quick
      test_zero_cost;
    Alcotest.test_case "recording does not perturb the mesh timeline" `Quick
      test_zero_cost_mesh;
    Alcotest.test_case "nocprof check passes (all-to-all)" `Quick
      test_check_passes;
    Alcotest.test_case "nocprof check passes (mesh)" `Quick
      test_check_passes_mesh;
    Alcotest.test_case "nocprof check passes with port waits (clustered)"
      `Quick test_check_passes_clustered;
    Alcotest.test_case "static mirror matches dynamic volumes" `Quick
      test_static_mirror_exact;
    Alcotest.test_case "class totals match the schedule" `Quick
      test_class_totals;
    Alcotest.test_case "port attribution matches Perfcore" `Quick
      test_port_attrib_matches_perfcore;
    Alcotest.test_case "hop histogram partitions the transfers" `Quick
      test_hop_histogram_partitions;
    Alcotest.test_case "link stats canonical and consistent" `Quick
      test_link_stats_consistent;
    Alcotest.test_case "per-class busy intervals never overlap" `Quick
      test_busy_intervals_sane;
    Alcotest.test_case "heatmap only on 2D meshes" `Quick test_heatmap;
    Alcotest.test_case "nocprof JSON deterministic" `Quick
      test_json_deterministic;
    Alcotest.test_case "analyze requires an interconnect record" `Quick
      test_analyze_requires_record;
    Alcotest.test_case "path transfers expand to their bookings in order" `Quick
      test_path_bookings_in_order;
    Alcotest.test_case "check rejects an overlapping zero-byte booking" `Quick
      test_rejects_overlap;
    Alcotest.test_case "check rejects a wait beyond the simulator's" `Quick
      test_rejects_excess_wait;
    Alcotest.test_case "check rejects extra booked bytes" `Quick
      test_rejects_extra_bytes;
  ]
