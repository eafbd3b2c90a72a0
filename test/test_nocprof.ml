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

(* ---- the index against list references ---------------------------- *)

(* The union of one link's two class groups, each sorted by start: merged
   by start (preload first on ties) and swept once — the list walk
   Nocprof used before the index answered the query. *)
let union_intervals pre exch =
  let add acc ((a, b) as iv) =
    match acc with
    | (ca, cb) :: tl when a <= cb -> (ca, Float.max cb b) :: tl
    | _ -> iv :: acc
  in
  let rec go acc pre exch =
    match (pre, exch) with
    | [], [] -> List.rev acc
    | iv :: pre, [] -> go (add acc iv) pre []
    | [], iv :: exch -> go (add acc iv) [] exch
    | ((a, _) as p) :: pre', ((b, _) as e) :: exch' ->
        if Float.compare a b <= 0 then go (add acc p) pre' exch else go (add acc e) pre exch'
  in
  go [] pre exch

(* One record of a random trace: a transfer along a route-table path
   (source code, destination core, bandwidth table), an explicit booking
   (link index, start, length), or an explicit transfer with a wait. *)
type rec_ =
  | Path of Nt.cls * int * int * int * float * float * int
  | Book of Nt.cls * int * int * float * float * float
  | Xfer of Nt.cls * int * float

(* Random records on the all-to-all or mesh chip, from a small pool of
   start times so that preload and execution bookings start together
   (-0. among them: only a signed zero shows which class a union took
   first), with zero-length bookings and explicit bookings out of start
   order.
   The record must read back as the bookings the test recorded, in
   recording order; the index's groups must be those bookings grouped by
   link and class group and stably sorted by start; each link's union
   must equal [union_intervals] over its groups; the overlap query must
   equal the pairwise walk at every slack; and the index's stats and
   [link_stats] must equal sums over the recorded bookings, float bit
   for float bit. *)
let qcheck_index_matches_reference =
  let open QCheck2.Gen in
  let cls = oneofl [ Nt.Preload; Nt.Distribute; Nt.Exchange ] in
  let start = oneof [ oneofl [ 0.; -0.; 1.; 2.5; 4. ]; float_range 0. 5. ] in
  let len = oneof [ pure 0.; float_range 0. 1.5 ] in
  let bytes = oneof [ pure 0.; float_range 1. 1e6 ] in
  let record =
    oneof
      [
        map3
          (fun (c, op) (src, dst, slot) (b, t) -> Path (c, op, src, dst, b, t, slot))
          (pair cls (int_bound 5))
          (triple (int_range (-4) 63) (int_bound 63) (int_bound 1))
          (pair bytes start);
        map3
          (fun (c, op) (link, b) (t, l) -> Book (c, op, link, b, t, l))
          (pair cls (int_bound 5)) (pair (int_bound 1000) bytes) (pair start len);
        map3 (fun c op w -> Xfer (c, op, w)) cls (int_bound 5) (float_range 0. 1.);
      ]
  in
  let case =
    triple bool (list_size (int_range 0 60) record)
      (list_size (int_range 1 4) (oneof [ oneofl [ 0.; 1e-6; -0.25 ]; float_range 0. 2. ]))
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:300
       ~name:"noctrace: index, unions, overlaps and stats equal their references"
       ~print:(fun (mesh, recs, _) ->
         Printf.sprintf "%s, %d records" (if mesh then "mesh" else "a2a") (List.length recs))
       case
  @@ fun (mesh, recs, slacks) ->
  let chip =
    if mesh then Elk_arch.Arch.Presets.scaled_chip ~topology_kind:`Mesh ()
    else Elk_arch.Arch.Presets.scaled_chip ()
  in
  let noc = N.create chip in
  let links = N.num_links noc and cores = chip.Elk_arch.Arch.cores in
  let ctrls = chip.Elk_arch.Arch.hbm_controllers in
  let effs =
    Array.init 2 (fun s ->
        Array.init links (fun id -> float_of_int ((((id * 7) + s) mod 13) + 1) *. 1e5))
  in
  let nt = Nt.create noc in
  (* (cls, op, link id, bytes, start, end), recording order *)
  let expected = ref [] in
  List.iter
    (function
      | Path (cls, op, src, dst, bytes, t_start, slot) ->
          let src = if src < 0 then N.Hbm ((-1 - src) mod ctrls) else N.Core (src mod cores) in
          let p = N.path noc ~src ~dst:(N.Core (dst mod cores)) in
          let eff = effs.(slot) in
          Nt.record_path nt ~cls ~op p ~eff ~bytes ~wait:0. ~t_start ~t_end:(t_start +. 1.);
          Array.iter
            (fun id ->
              let t_end = t_start +. (bytes /. eff.(id)) in
              expected := (cls, op, id, bytes, t_start, t_end) :: !expected)
            p.N.ids
      | Book (cls, op, link, bytes, t_start, len) ->
          let link = link mod links in
          Nt.record_booking nt ~cls ~op ~link ~bytes ~t_start ~t_end:(t_start +. len);
          expected := (cls, op, link, bytes, t_start, t_start +. len) :: !expected
      | Xfer (cls, op, wait) ->
          Nt.record_transfer nt ~cls ~op ~src:(N.Core 1) ~dst:(N.Core 0) ~bytes:1. ~hops:1
            ~wait ~t_start:0. ~t_end:1.)
    recs;
  let expected = List.rev !expected in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  (* the record reads back as recorded *)
  let got = Array.to_list (Nt.bookings nt) in
  if List.length got <> List.length expected then fail "%d bookings read back" (List.length got);
  List.iteri
    (fun k ((b : Nt.booking), (cls, op, id, bytes, st, en)) ->
      if
        not
          (b.Nt.b_cls = cls && b.Nt.b_op = op && b.Nt.b_link = N.link_of_id noc id
         && eq b.Nt.b_bytes bytes && eq b.Nt.b_start st && eq b.Nt.b_end en)
      then fail "booking %d differs from the one recorded" k)
    (List.combine got expected);
  (* stats: per-link sums in recording order *)
  let volume = Array.make links 0. and by_cls = Array.make (3 * links) 0. in
  let busy = Array.make links 0. and count = Array.make links 0 in
  List.iter
    (fun (cls, _, l, bytes, st, en) ->
      let k =
        (3 * l) + match cls with Nt.Preload -> 0 | Nt.Distribute -> 1 | Nt.Exchange -> 2
      in
      volume.(l) <- volume.(l) +. bytes;
      by_cls.(k) <- by_cls.(k) +. bytes;
      busy.(l) <- busy.(l) +. Float.max 0. (en -. st);
      count.(l) <- count.(l) + 1)
    expected;
  let want_stats =
    List.filter_map
      (fun l ->
        if count.(l) = 0 then None
        else
          Some
            ( l, volume.(l), by_cls.(3 * l), by_cls.((3 * l) + 1), by_cls.((3 * l) + 2),
              busy.(l), count.(l) ))
      (List.init links Fun.id)
  in
  let ix = Nt.index nt in
  let same_stats what stats =
    if List.length stats <> List.length want_stats then
      fail "%s: %d links" what (List.length stats);
    List.iter2
      (fun (s : Nt.link_stat) (l, v, p, d, e, b, c) ->
        if
          not
            (s.Nt.ls_link = N.link_of_id noc l && eq s.Nt.ls_volume v && eq s.Nt.ls_preload p
           && eq s.Nt.ls_distribute d && eq s.Nt.ls_exchange e && eq s.Nt.ls_busy b
           && s.Nt.ls_bookings = c)
        then fail "%s: link %d differs from the recorded sums" what l)
      stats want_stats
  in
  same_stats "link_stats" (Nt.link_stats nt);
  same_stats "index stats" (Nt.stats ix);
  (* groups, unions and the pairwise overlap walk, link by link *)
  let u = Nt.unions ix in
  let ivs_equal a b =
    List.length a = List.length b
    && List.for_all2 (fun (a1, b1) (a2, b2) -> eq a1 a2 && eq b1 b2) a b
  in
  let walks =
    List.init links (fun l ->
        let group pre =
          List.filter_map
            (fun (cls, _, l', _, st, en) ->
              if l' = l && (cls = Nt.Preload) = pre then Some (st, en) else None)
            expected
          |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        in
        let pre, exch = Nt.busy_intervals ix ~link:l in
        if not (ivs_equal pre (group true) && ivs_equal exch (group false)) then
          fail "link %d: busy intervals differ from the recorded bookings" l;
        let union =
          List.init (u.Nt.u_first.(l + 1) - u.Nt.u_first.(l)) (fun k ->
              (u.Nt.u_starts.(u.Nt.u_first.(l) + k), u.Nt.u_ends.(u.Nt.u_first.(l) + k)))
        in
        if not (ivs_equal union (union_intervals pre exch)) then
          fail "link %d: union differs from union_intervals" l;
        (l, pre, exch))
  in
  List.iter
    (fun slack ->
      let pairwise =
        List.find_map
          (fun (l, pre, exch) ->
            let rec go = function
              | (_, b) :: ((a2, _) :: _ as rest) -> a2 < b -. slack || go rest
              | _ -> false
            in
            if go pre then Some (l, `Preload) else if go exch then Some (l, `Execution) else None)
          walks
      in
      if Nt.overlap ix ~slack <> pairwise then fail "overlap at slack %g differs" slack)
    slacks;
  true

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
    qcheck_index_matches_reference;
  ]
