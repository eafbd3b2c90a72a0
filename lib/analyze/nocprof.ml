(* Interconnect observability: per-link congestion profiles, the view
   behind `elk noc`.

   The dynamic view replays the simulator's Noctrace record — every
   link reservation the two fluid fabrics made — into per-link rows
   (volume, class breakdown, busy time, utilization), Timeseries
   utilization gauges over simulated time, hop-count histograms and,
   on 2D meshes, an ASCII heatmap.  The record is indexed once per
   report (by link and by op and class, with the per-link stats), the
   busy unions and the overlap check are read off the index's flat
   arrays, and [check] reuses the index, so a report and its check are
   linear in the record apart from sorting, and allocate no object per
   booking.  The static view is a Noc.Load mirror of the schedule's
   communication: the route arrays the simulator books, read from the
   simulator's own Noc ([Noc.preload_routes], [Noc.distribution_ring],
   [Noc.exchange_ring]) and booked with Load.add_path.  [check] gates
   the two against each other link by link (and busiest against
   Load.busiest), and reconciles recorded queueing waits with
   Perfcore's per-op port attribution and with the simulator's per-op
   distribute/exchange port waits.  A violation means one of the layers
   drifted.

   The JSON snapshot carries a Tracediff-comparable core (total =
   makespan, hottest links as interconnect segments in busy-seconds),
   so CI gates BENCH_noc.json with the machinery that already gates
   critical paths, SLOs and memory. *)

module Nt = Elk_sim.Noctrace
module N = Elk_noc.Noc
module Ts = Elk_obs.Timeseries
module A = Elk_arch.Arch
module P = Elk_partition.Partition
module J = Elk_obs.Jsonx
module Stats = Elk_util.Stats

(* Same relative tolerance as Perfcore's tiling invariant. *)
let drift_eps = 1e-6

type link_row = {
  l_link : N.link;
  l_name : string;
  l_bandwidth : float;  (* raw capacity, B/s *)
  l_volume : float;  (* dynamic booked bytes *)
  l_static : float;  (* static Load mirror's bytes *)
  l_preload : float;
  l_distribute : float;
  l_exchange : float;
  l_busy : float;  (* summed reservation seconds, both classes *)
  l_util : float;  (* busy / makespan *)
  l_bookings : int;
}

type report = {
  model : string;
  total : float;  (* simulated makespan *)
  topology : string;
  noc : N.t;
  rows : link_row list;  (* canonical link order *)
  hot : link_row list;  (* by descending busy time, ties canonical *)
  busiest_dyn : (N.link * float) option;  (* link, volume/bandwidth *)
  busiest_static : (N.link * float) option;
  pre_bytes : float;  (* recorded class bytes, once per transfer *)
  dist_bytes : float;
  ex_bytes : float;
  expect_pre : float;  (* schedule-side expectations for the same sums *)
  expect_dist : float;
  expect_ex : float;
  hops : (int * int * float) list;  (* hop histogram *)
  mean_hops : float;  (* byte-weighted mean route length *)
  trace : Nt.t;
  index : Nt.index;
  series : Ts.t;
  port_attrib : (float * float) array;  (* per op: recomputed vs Perfcore a_port *)
  per_op : Elk_sim.Sim.op_trace array;
}

(* ---- static mirror ---------------------------------------------------- *)

(* Book the schedule's communication into a Noc.Load exactly the way
   the simulator executes it, along the same Noc routes: the preload
   fan-out, the distribution ring and the exchange ring.  Guards mirror
   the simulator's (no transfer for zero bytes; a core receiving from
   itself books an empty route), so the per-link volumes must agree
   with the dynamic record to float noise.  A booking is a walk over a
   route's link ids. *)
let static_load noc (s : Elk.Schedule.t) =
  let load = N.Load.create noc in
  let book bytes paths = Array.iter (fun p -> N.Load.add_path load p ~bytes) paths in
  Array.iter
    (fun e ->
      let popt = e.Elk.Schedule.popt and plan = e.Elk.Schedule.plan in
      let per_core = popt.P.noc_inject_bytes /. float_of_int (N.cores noc) in
      if popt.P.hbm_device_bytes > 0. && per_core > 0. then book per_core (N.preload_routes noc);
      let ncores = plan.P.cores_used in
      let dist = popt.P.dist_bytes_per_core and ex = plan.P.exchange_bytes_per_core in
      if dist > 0. then book dist (N.distribution_ring noc ~ncores);
      if ex > 0. then book ex (N.exchange_ring noc ~ncores))
    s.Elk.Schedule.entries;
  load

(* ---- analysis --------------------------------------------------------- *)

let series_of_link name = "noc_link_util:" ^ name

(* The hottest links that get a utilization gauge. *)
let top_series = 5

(* Ascending, stable natural merge sort of a float array, comparing
   unboxed floats ([Array.sort] boxes both operands of every comparison):
   each pass merges neighbouring non-decreasing runs, so an array made of
   r sorted runs takes log2 r passes. *)
let sort_floats a =
  let n = Array.length a in
  (* run boundaries: bounds.(0) = 0 < ... < bounds.(runs) = n *)
  let bounds = Array.make (n + 1) n in
  let runs = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || a.(k) < a.(k - 1) then begin
      bounds.(!runs) <- k;
      incr runs
    end
  done;
  bounds.(!runs) <- n;
  let src = ref a and dst = ref (Array.make n 0.) in
  while !runs > 1 do
    let s = !src and d = !dst in
    let merged = ref 0 in
    let r = ref 0 in
    while !r < !runs do
      let lo = bounds.(!r) and mid = bounds.(min !runs (!r + 1)) in
      let hi = bounds.(min !runs (!r + 2)) in
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      bounds.(!merged) <- lo;
      incr merged;
      r := !r + 2
    done;
    bounds.(!merged) <- n;
    runs := !merged;
    src := d;
    dst := s
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* The trace's queueing waits of one op's distribution and exchange
   phases, each capped at its phase's length as the simulator caps it. *)
let trace_port_waits index ~op (o : Elk_sim.Sim.op_trace) =
  ( Float.min
      (o.Elk_sim.Sim.dist_end -. o.Elk_sim.Sim.exe_start)
      (Nt.max_wait index ~op ~cls:Nt.Distribute),
    Float.min
      (o.Elk_sim.Sim.exe_end -. o.Elk_sim.Sim.compute_end)
      (Nt.max_wait index ~op ~cls:Nt.Exchange) )

let analyze ?window (s : Elk.Schedule.t) (r : Elk_sim.Sim.result) =
  let trace =
    match r.Elk_sim.Sim.noc with
    | Some t -> t
    | None ->
        invalid_arg
          "Nocprof.analyze: simulator run has no interconnect record (run \
           with ~noc:true)"
  in
  let noc = Nt.noc trace in
  let chip = N.chip noc in
  let total = r.Elk_sim.Sim.total in
  let topology =
    match chip.A.topology with
    | A.All_to_all -> "all-to-all"
    | A.Mesh2d { rows; cols } -> Printf.sprintf "mesh %dx%d" rows cols
    | A.Clustered { cluster_size; _ } ->
        Printf.sprintf "clustered/%d" cluster_size
  in
  let load = static_load noc s in
  let index = Nt.index trace in
  let rows =
    List.map
      (fun (st : Nt.link_stat) ->
        {
          l_link = st.Nt.ls_link;
          l_name = N.link_name st.Nt.ls_link;
          l_bandwidth = st.Nt.ls_bandwidth;
          l_volume = st.Nt.ls_volume;
          l_static = N.Load.volume_on load st.Nt.ls_link;
          l_preload = st.Nt.ls_preload;
          l_distribute = st.Nt.ls_distribute;
          l_exchange = st.Nt.ls_exchange;
          l_busy = st.Nt.ls_busy;
          l_util = (if total > 0. then st.Nt.ls_busy /. total else 0.);
          l_bookings = st.Nt.ls_bookings;
        })
      (Nt.stats index)
  in
  let hot =
    List.stable_sort (fun a b -> Float.compare b.l_busy a.l_busy) rows
  in
  let busiest_dyn =
    List.fold_left
      (fun acc row ->
        let time = row.l_volume /. row.l_bandwidth in
        match acc with
        | Some (_, best) when best >= time -> acc
        | _ -> Some (row.l_link, time))
      None rows
  in
  (* Schedule-side expectations for the recorded class totals, with the
     simulator's own guards (nothing moves for zero bytes or src=dst). *)
  let expect_pre = ref 0. and expect_dist = ref 0. and expect_ex = ref 0. in
  Array.iter
    (fun e ->
      let popt = e.Elk.Schedule.popt and plan = e.Elk.Schedule.plan in
      let ncores = plan.P.cores_used in
      if popt.P.hbm_device_bytes > 0. && popt.P.noc_inject_bytes > 0. then
        expect_pre := !expect_pre +. popt.P.noc_inject_bytes;
      if ncores > 1 then begin
        expect_dist :=
          !expect_dist +. (popt.P.dist_bytes_per_core *. float_of_int ncores);
        expect_ex :=
          !expect_ex +. (plan.P.exchange_bytes_per_core *. float_of_int ncores)
      end)
    s.Elk.Schedule.entries;
  (* Per-op port attribution recomputed from the trace's queueing waits,
     against Perfcore's books. *)
  let per_op = r.Elk_sim.Sim.per_op in
  let port_attrib =
    Array.mapi
      (fun op o ->
        let port_d, port_e = trace_port_waits index ~op o in
        ( port_d +. port_e,
          r.Elk_sim.Sim.perf.Elk_sim.Perfcore.per_op.(op)
            .Elk_sim.Perfcore.a_port ))
      per_op
  in
  (* Utilization gauges: 1 while the link holds a reservation (either
     class), 0 while idle — the windowed mean is the link's utilization
     over each window.  One gauge per hottest link, plus a busy-link
     count across the whole fabric. *)
  let window =
    match window with Some w -> w | None -> Ts.default_window ~horizon:total
  in
  let series = Ts.create ~window ~horizon:total () in
  let top_links = List.filteri (fun i _ -> i < top_series) hot in
  let u = Nt.unions index in
  List.iter
    (fun row ->
      let name = series_of_link row.l_name in
      Ts.set series name ~time:0. 0.
        ~help:("Busy fraction of " ^ row.l_name ^ " over time");
      let id = N.link_id noc row.l_link in
      for k = u.Nt.u_first.(id) to u.Nt.u_first.(id + 1) - 1 do
        Ts.set series name ~time:u.Nt.u_starts.(k) 1.;
        Ts.set series name ~time:u.Nt.u_ends.(k) 0.
      done)
    top_links;
  (* The busy-link count steps +1 at each union interval's start and -1
     at its end; at equal times the -1 goes first.  Each link's union
     starts and ends are already sorted runs. *)
  let n_iv = u.Nt.u_first.(N.num_links noc) in
  let ups = Array.sub u.Nt.u_starts 0 n_iv and downs = Array.sub u.Nt.u_ends 0 n_iv in
  sort_floats ups;
  sort_floats downs;
  let busy = "noc_busy_links" in
  Ts.set series busy ~time:0. 0. ~help:"Links holding at least one reservation";
  let level = ref 0. and i = ref 0 and j = ref 0 in
  while !i < n_iv || !j < n_iv do
    if !j < n_iv && (!i >= n_iv || Float.compare downs.(!j) ups.(!i) <= 0) then begin
      level := !level -. 1.;
      Ts.set series busy ~time:downs.(!j) !level;
      incr j
    end
    else begin
      level := !level +. 1.;
      Ts.set series busy ~time:ups.(!i) !level;
      incr i
    end
  done;
  let hops = Nt.hop_histogram trace in
  let mean_hops =
    let b = List.fold_left (fun a (_, _, bytes) -> a +. bytes) 0. hops in
    if b <= 0. then 0.
    else
      List.fold_left
        (fun a (h, _, bytes) -> a +. (float_of_int h *. bytes))
        0. hops
      /. b
  in
  {
    model = Elk_model.Graph.name s.Elk.Schedule.graph;
    total;
    topology;
    noc;
    rows;
    hot;
    busiest_dyn;
    busiest_static = N.Load.busiest load;
    pre_bytes = Nt.class_bytes trace ~cls:Nt.Preload;
    dist_bytes = Nt.class_bytes trace ~cls:Nt.Distribute;
    ex_bytes = Nt.class_bytes trace ~cls:Nt.Exchange;
    expect_pre = !expect_pre;
    expect_dist = !expect_dist;
    expect_ex = !expect_ex;
    hops;
    mean_hops;
    trace;
    index;
    series;
    port_attrib;
    per_op;
  }

(* ---- cross-checks ----------------------------------------------------- *)

(* The invariants `elk noc` enforces on every run (and CI on every zoo
   model): the dynamic per-link volumes agree with the static Load
   mirror (and the busiest links coincide), recorded class totals match
   the schedule's, recomputed queueing waits match Perfcore's per-op
   port attribution and the simulator's per-op distribute/exchange
   port waits, per-class busy intervals never overlap on a link, and
   the utilization series tile without gaps. *)
let check rep =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let link_drift =
    List.find_opt
      (fun row -> Stats.rel_err row.l_volume row.l_static > drift_eps)
      rep.rows
  in
  match link_drift with
  | Some row ->
      err
        "link %s: recorded volume %.6g B drifts from the static Load \
         mirror's %.6g B — the simulator and Noc.Load disagree"
        row.l_name row.l_volume row.l_static
  | None -> (
      match (rep.busiest_dyn, rep.busiest_static) with
      | Some (dl, dt), Some (sl, st)
        when dl <> sl && Stats.rel_err dt st > drift_eps ->
          err "busiest link diverged: recorded %s (%.3g s) vs static %s (%.3g s)"
            (N.link_name dl) dt (N.link_name sl) st
      | Some (_, dt), Some (_, st) when Stats.rel_err dt st > drift_eps ->
          err "busiest-link volume drifted: recorded %.6g s vs static %.6g s"
            dt st
      | Some _, None | None, Some _ ->
          err "busiest link exists in only one of the dynamic/static views"
      | _ ->
          let class_drift =
            List.find_opt
              (fun (_, got, want) -> Stats.rel_err got want > drift_eps)
              [
                ("preload", rep.pre_bytes, rep.expect_pre);
                ("distribute", rep.dist_bytes, rep.expect_dist);
                ("exchange", rep.ex_bytes, rep.expect_ex);
              ]
          in
          (match class_drift with
          | Some (cls, got, want) ->
              err "%s class bytes %.6g drift from the schedule's %.6g" cls got
                want
          | None ->
              let port_drift =
                Array.find_mapi
                  (fun op (o : Elk_sim.Sim.op_trace) ->
                    let got, want = rep.port_attrib.(op) in
                    let port_d, port_e = trace_port_waits rep.index ~op o in
                    let phase cls sim trace =
                      if Stats.rel_err sim trace > drift_eps then
                        Some
                          (Printf.sprintf
                             "op %d: the simulator's %s port wait %.6g s \
                              disagrees with the trace's max queueing wait \
                              %.6g s"
                             op cls sim trace)
                      else None
                    in
                    if Stats.rel_err got want > drift_eps then
                      Some
                        (Printf.sprintf
                           "op %d: port wait recomputed from the trace (%.6g \
                            s) drifts from Perfcore's attribution (%.6g s)"
                           op got want)
                    else
                      match phase "distribute" o.Elk_sim.Sim.dist_wait port_d with
                      | Some m -> Some m
                      | None -> phase "exchange" o.Elk_sim.Sim.ex_wait port_e)
                  rep.per_op
              in
              (match port_drift with
              | Some m -> Error m
              | None ->
                  let overlap =
                    Nt.overlap rep.index
                      ~slack:(drift_eps *. Float.max 1. rep.total)
                  in
                  (match overlap with
                  | Some (id, group) ->
                      err
                        "link %s: overlapping %s-class reservations — the \
                         fabric's serialization was not recorded faithfully"
                        (N.link_name (N.link_of_id rep.noc id))
                        (match group with
                        | `Preload -> "preload"
                        | `Execution -> "exchange")
                  | None -> Ts.check_all rep.series ~horizon:rep.total))))

(* ---- tables ----------------------------------------------------------- *)

let mb v = Printf.sprintf "%.2f" (v /. 1048576.)
let us v = Printf.sprintf "%.1f" (v *. 1e6)
let gbs v = Printf.sprintf "%.1f" (v /. 1e9)
let pct v = Printf.sprintf "%.1f%%" (100. *. v)

let tables ?(top = 10) rep =
  let summary =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf
           "interconnect: %s on %s, makespan %s us, %d links touched, %d \
            transfers"
           rep.model rep.topology (us rep.total) (List.length rep.rows)
           (Nt.num_transfers rep.trace))
      ~columns:[ "metric"; "value" ]
  in
  List.iter
    (fun (k, v) -> Elk_util.Table.add_row summary [ k; v ])
    [
      ("preload bytes (MB)", mb rep.pre_bytes);
      ("distribute bytes (MB)", mb rep.dist_bytes);
      ("exchange bytes (MB)", mb rep.ex_bytes);
      ("mean route length (links)", Printf.sprintf "%.2f" rep.mean_hops);
      ( "busiest link (dynamic)",
        match rep.busiest_dyn with
        | Some (l, t) -> Printf.sprintf "%s (%s us)" (N.link_name l) (us t)
        | None -> "-" );
      ( "busiest link (static Load)",
        match rep.busiest_static with
        | Some (l, t) -> Printf.sprintf "%s (%s us)" (N.link_name l) (us t)
        | None -> "-" );
    ];
  let links =
    Elk_util.Table.create
      ~title:(Printf.sprintf "hottest links (top %d by busy time)" top)
      ~columns:
        [ "link"; "GB/s"; "MB"; "preload"; "distribute"; "exchange"; "busy us";
          "util" ]
  in
  List.iteri
    (fun i row ->
      if i < top then
        let share v =
          if row.l_volume <= 0. then "-" else pct (v /. row.l_volume)
        in
        Elk_util.Table.add_row links
          [
            row.l_name; gbs row.l_bandwidth; mb row.l_volume;
            share row.l_preload; share row.l_distribute; share row.l_exchange;
            us row.l_busy; pct row.l_util;
          ])
    rep.hot;
  let hist =
    Elk_util.Table.create
      ~title:"route length histogram"
      ~columns:[ "hops"; "transfers"; "MB" ]
  in
  List.iter
    (fun (h, n, bytes) ->
      Elk_util.Table.add_row hist [ string_of_int h; string_of_int n; mb bytes ])
    rep.hops;
  [ summary; links; hist ]

(* ASCII mesh heatmap: one cell per core, intensity = the hottest
   utilization among the links leaving that core (outgoing mesh edges,
   plus the controller entry edge where one lands).  None on
   non-mesh topologies. *)
let heatmap rep =
  if not (N.is_mesh rep.noc) then None
  else begin
    let chip = N.chip rep.noc in
    match chip.A.topology with
    | A.Mesh2d { rows; cols } ->
        let cell = Array.make (rows * cols) 0. in
        List.iter
          (fun row ->
            let bump c v = if c >= 0 && c < rows * cols then cell.(c) <- Float.max cell.(c) v in
            match row.l_link with
            | N.Edge { from_core; _ } -> bump from_core row.l_util
            | N.Hbm_edge { entry; _ } -> bump entry row.l_util
            | _ -> ())
          rep.rows;
        let hi = Array.fold_left Float.max 0. cell in
        let lines =
          List.init rows (fun r ->
              String.concat ""
                (List.init cols (fun c -> Elk_util.Table.glyph ~hi cell.((r * cols) + c))))
        in
        Some
          (Printf.sprintf
             "link utilization heatmap (%dx%d cores, peak %s outgoing-link \
              busy)"
             rows cols (pct hi)
          :: List.map (fun l -> "  |" ^ l ^ "|") lines)
    | _ -> None
  end

let print ?top rep =
  List.iter Elk_util.Table.print (tables ?top rep);
  (match heatmap rep with
  | Some lines ->
      List.iter print_endline lines;
      print_newline ()
  | None -> ());
  match rep.hot with
  | [] -> ()
  | hottest :: _ ->
      let points =
        Ts.points rep.series ~horizon:rep.total
          (series_of_link hottest.l_name)
      in
      if points <> [] then begin
        let vals = List.map (fun p -> p.Ts.mean) points in
        Printf.printf "%s utilization over time (%d windows, %s busy):\n  %s\n"
          hottest.l_name (List.length points) (pct hottest.l_util)
          (Elk_util.Table.sparkline vals)
      end

(* ---- JSON snapshot ---------------------------------------------------- *)

let to_json ?(top = 10) rep =
  let g = J.number6 in
  let segments =
    List.filteri (fun i _ -> i < top) rep.hot
    |> List.map (fun row ->
           { Tracediff.name = row.l_name; kind = "link-busy"; resource = "interconnect";
             dur = row.l_busy })
  in
  let busy_total = List.fold_left (fun a row -> a +. row.l_busy) 0. rep.rows in
  let links =
    List.filteri (fun i _ -> i < top) rep.hot
    |> List.map (fun row ->
           Printf.sprintf
             "{\"link\":%s,\"bandwidth\":%s,\"bytes\":%s,\"static_bytes\":%s,\"preload\":%s,\"distribute\":%s,\"exchange\":%s,\"busy\":%s,\"util\":%s,\"bookings\":%d}"
             (J.quote row.l_name) (g row.l_bandwidth) (g row.l_volume)
             (g row.l_static) (g row.l_preload) (g row.l_distribute)
             (g row.l_exchange) (g row.l_busy) (g row.l_util) row.l_bookings)
  in
  let hist =
    List.map
      (fun (h, n, bytes) ->
        Printf.sprintf "{\"hops\":%d,\"transfers\":%d,\"bytes\":%s}" h n
          (g bytes))
      rep.hops
  in
  let busiest = function
    | Some (l, t) ->
        Printf.sprintf "{\"link\":%s,\"seconds\":%s}" (J.quote (N.link_name l))
          (g t)
    | None -> "null"
  in
  J.obj
    ((J.field "model" (J.quote rep.model)
     :: Tracediff.core_fields ~total:rep.total ~dominant:"interconnect"
          ~resources:[ ("interconnect", busy_total) ]
          ~segments)
    @ [
        (* Full interconnect payload *)
        J.field "topology" (J.quote rep.topology);
        J.field "links_touched" (string_of_int (List.length rep.rows));
        J.field "transfers" (string_of_int (Nt.num_transfers rep.trace));
        J.field "preload_bytes" (g rep.pre_bytes);
        J.field "distribute_bytes" (g rep.dist_bytes);
        J.field "exchange_bytes" (g rep.ex_bytes);
        J.field "mean_hops" (g rep.mean_hops);
        J.field "busiest" (busiest rep.busiest_dyn);
        J.field "busiest_static" (busiest rep.busiest_static);
        J.field "links" (J.arr links);
        J.field "hops" (J.arr hist);
        J.field "series" (Ts.to_json rep.series ~horizon:rep.total ());
      ])

(* ---- Perfetto counter tracks ------------------------------------------ *)

(* Distinct from the device timeline (pid 1), serving lanes (pid 7),
   memory counters (pid 8) and generic Timeseries counters (pid 9). *)
let noc_pid = 10

let chrome_counter_events rep =
  Ts.counter_tracks rep.series ~horizon:rep.total ~pid:noc_pid ()
