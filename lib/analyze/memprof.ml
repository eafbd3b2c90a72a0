(* Memory observability: SRAM residency timelines + buffer-lifetime
   ledger, the two views behind `elk mem`.

   The dynamic view replays the simulator's Memtrace record into
   Timeseries gauges (per-core occupancy over simulated time, chip
   aggregate, high-water marks vs the SRAM capacity) and integrates
   wasted residency — byte-seconds a preload buffer sits delivered but
   unused, and byte-seconds an execute footprint lingers after its last
   tile-compute use.  The static view is the Elk.Residency ledger,
   derived from the schedule alone.  [check] gates the two against each
   other: occupancy must never exceed the per-core capacity, and the
   static high-water mark must bound the dynamic one (to the verifier's
   tolerance) — the preload-reservation order in the device program is
   exactly the one the static replay assumes, so a violation means one
   of the layers drifted.

   The JSON snapshot carries a Tracediff-comparable core (total =
   makespan, wasted residency as segments in capacity-seconds), so CI
   gates BENCH_mem.json with the machinery that already gates critical
   paths and SLOs. *)

module Mt = Elk_sim.Memtrace
module Rd = Elk.Residency
module Ts = Elk_obs.Timeseries
module A = Elk_arch.Arch
module P = Elk_partition.Partition
module J = Elk_obs.Jsonx

(* Same absolute slack as the verifier's capacity rule. *)
let capacity_eps = 1e-6

type waste_row = {
  w_name : string;
  w_ops : int;  (* operators aggregated under the name *)
  w_bytes : float;  (* largest per-core preload footprint among them *)
  w_resident_s : float;  (* summed delivery-to-first-use residency *)
  w_pre : float;  (* byte-seconds of pre-use waste *)
  w_post : float;  (* byte-seconds of post-use (exchange-tail) waste *)
}

type report = {
  model : string;
  total : float;  (* simulated makespan *)
  capacity : float;  (* usable SRAM bytes per core *)
  cores : int;
  dyn_high_water : float;  (* peak per-core bytes, dynamic *)
  static_high_water : float;  (* peak per-core bytes, static ledger *)
  static_high_water_step : int;
  chip_peak : float;  (* peak aggregate bytes across all cores *)
  pre_waste : float;  (* total pre-use wasted byte-seconds *)
  post_waste : float;  (* total post-use wasted byte-seconds *)
  waste_rows : waste_row list;  (* by descending total waste *)
  ledger : Rd.t;
  mem : Mt.t;
  series : Ts.t;
}

let series_names =
  [ "sram_occupancy_max_core_bytes"; "sram_occupancy_min_core_bytes";
    "sram_occupancy_chip_bytes" ]

let analyze ?window ctx (s : Elk.Schedule.t) (r : Elk_sim.Sim.result) =
  let mem =
    match r.Elk_sim.Sim.mem with
    | Some m -> m
    | None ->
        invalid_arg
          "Memprof.analyze: simulator run has no memory record (run with \
           ~mem:true)"
  in
  let chip = P.ctx_chip ctx in
  let capacity = A.usable_sram_per_core chip in
  let cores = chip.A.cores in
  let total = r.Elk_sim.Sim.total in
  let ledger = Rd.of_schedule ~capacity ~cores s in
  let window =
    match window with Some w -> w | None -> Float.max 1e-9 (total /. 48.)
  in
  let series = Ts.create ~window ~horizon:total () in
  let gauge name help pts =
    Ts.set series name ~time:0. 0. ~help;
    List.iter (fun (t, v) -> Ts.set series name ~time:t v) pts
  in
  gauge "sram_occupancy_max_core_bytes"
    "Per-core SRAM occupancy of the fullest core (core 0 holds every buffer)"
    (Mt.occupancy mem ~core:0);
  gauge "sram_occupancy_min_core_bytes"
    "Per-core SRAM occupancy of the emptiest core (preload buffers only)"
    (Mt.occupancy mem ~core:(max 0 (cores - 1)));
  gauge "sram_occupancy_chip_bytes"
    "Aggregate SRAM bytes resident across all cores"
    (Mt.chip_occupancy mem);
  (* Wasted residency, aggregated per operator name so layers of the
     same block fold into one row (the shape Tracediff diffs well). *)
  let tbl : (string, waste_row ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  for op = 0 to Mt.num_ops mem - 1 do
    let m = Mt.op_mem mem op in
    let name = (List.nth ledger.Rd.hbm op).Rd.h_name in
    let resident = Float.max 0. (m.Mt.m_first_use -. m.Mt.m_deliver) in
    let pre = Mt.pre_use_waste mem op and post = Mt.post_use_waste mem op in
    match Hashtbl.find_opt tbl name with
    | Some row ->
        row :=
          {
            !row with
            w_ops = !row.w_ops + 1;
            w_bytes = Float.max !row.w_bytes m.Mt.m_preload_bytes;
            w_resident_s = !row.w_resident_s +. resident;
            w_pre = !row.w_pre +. pre;
            w_post = !row.w_post +. post;
          }
    | None ->
        order := name :: !order;
        Hashtbl.add tbl name
          (ref
             {
               w_name = name;
               w_ops = 1;
               w_bytes = m.Mt.m_preload_bytes;
               w_resident_s = resident;
               w_pre = pre;
               w_post = post;
             })
  done;
  let waste_rows =
    List.rev_map (fun name -> !(Hashtbl.find tbl name)) !order
    |> List.stable_sort (fun a b ->
           compare (b.w_pre +. b.w_post) (a.w_pre +. a.w_post))
  in
  {
    model = Elk_model.Graph.name s.Elk.Schedule.graph;
    total;
    capacity;
    cores;
    dyn_high_water = Mt.high_water mem;
    static_high_water = ledger.Rd.high_water;
    static_high_water_step = ledger.Rd.high_water_step;
    chip_peak = Mt.chip_high_water mem;
    pre_waste = Mt.total_pre_use_waste mem;
    post_waste = Mt.total_post_use_waste mem;
    waste_rows;
    ledger;
    mem;
    series;
  }

(* ---- cross-checks ----------------------------------------------------- *)

(* Bytes by which the dynamic peak exceeds usable SRAM per core.  Like
   the verifier's [mem.overcommit] rule this is a warning, not an error:
   some plans deliberately overcommit when even minimal preload options
   overflow, and the contention is charged downstream — the schedule
   still simulates.  0 when the peak fits. *)
let overcommit_bytes rep =
  Float.max 0. (rep.dyn_high_water -. rep.capacity)

(* The invariants `elk mem` enforces on every run (and CI on every zoo
   model): the static ledger bounds the dynamic high water (the two
   views agree), the chip aggregate is consistent with the per-core
   peak, waste is non-negative, and the series tile without gaps.
   Capacity exceedance is deliberately NOT an error here — see
   {!overcommit_bytes}. *)
let check rep =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if rep.dyn_high_water > rep.static_high_water +. capacity_eps then
    err
      "dynamic high water %.0f B/core exceeds the static ledger's %.0f \
       B/core (step %d) — the liveness replay and the simulator drifted"
      rep.dyn_high_water rep.static_high_water rep.static_high_water_step
  else if
    rep.chip_peak
    > (rep.dyn_high_water *. float_of_int rep.cores)
      +. (capacity_eps *. float_of_int rep.cores)
  then
    err "chip-aggregate peak %.0f B exceeds cores x per-core peak %.0f B"
      rep.chip_peak
      (rep.dyn_high_water *. float_of_int rep.cores)
  else if rep.pre_waste < 0. || rep.post_waste < 0. then
    err "negative wasted residency (%.3g pre, %.3g post)" rep.pre_waste
      rep.post_waste
  else
    let bad =
      List.find_map
        (fun name ->
          match Ts.check_tiling rep.series ~horizon:rep.total name with
          | Ok () -> None
          | Error m -> Some m)
        series_names
    in
    match bad with Some m -> Error m | None -> Ok ()

(* ---- tables ----------------------------------------------------------- *)

let kb v = Printf.sprintf "%.1f" (v /. 1024.)
let us v = Printf.sprintf "%.1f" (v *. 1e6)
let pct v total = Printf.sprintf "%.1f%%" (100. *. v /. Float.max 1e-12 total)

(* Waste reads naturally in KB·us: per-core kilobytes held for
   microseconds, summed over cores. *)
let kbus v = Printf.sprintf "%.1f" (v /. 1024. *. 1e6)

let tables ?(top = 10) rep =
  let cap_s = rep.capacity *. float_of_int rep.cores *. rep.total in
  let summary =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf
           "SRAM residency: %s, makespan %s us, %d cores x %s KB usable"
           rep.model (us rep.total) rep.cores (kb rep.capacity))
      ~columns:[ "metric"; "KB"; "vs capacity" ]
  in
  List.iter
    (fun (name, bytes, denom) ->
      Elk_util.Table.add_row summary [ name; kb bytes; pct bytes denom ])
    [
      ("dynamic high water / core", rep.dyn_high_water, rep.capacity);
      ("static ledger high water / core", rep.static_high_water, rep.capacity);
      ("chip peak (all cores)", rep.chip_peak,
       rep.capacity *. float_of_int rep.cores);
    ];
  let waste =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf
           "wasted residency: %s KB*us pre-use + %s KB*us exchange-tail \
            (%s of capacity-time)"
           (kbus rep.pre_waste) (kbus rep.post_waste)
           (pct (rep.pre_waste +. rep.post_waste) cap_s))
      ~columns:
        [ "operator"; "ops"; "KB/core"; "resident us"; "pre-use KB*us";
          "tail KB*us" ]
  in
  List.iteri
    (fun i row ->
      if i < top then
        Elk_util.Table.add_row waste
          [
            row.w_name; string_of_int row.w_ops; kb row.w_bytes;
            us row.w_resident_s; kbus row.w_pre; kbus row.w_post;
          ])
    rep.waste_rows;
  let total_hbm =
    List.fold_left (fun a h -> a +. h.Rd.h_bytes) 0. rep.ledger.Rd.hbm
  in
  let hbm =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf "HBM traffic ledger: %.1f MB moved in %d transfers"
           (total_hbm /. 1048576.)
           (List.fold_left (fun a h -> a + h.Rd.h_moves) 0 rep.ledger.Rd.hbm))
      ~columns:[ "op"; "name"; "MB moved"; "moves"; "reuse dist (steps)" ]
  in
  let by_bytes =
    List.stable_sort
      (fun a b -> compare b.Rd.h_bytes a.Rd.h_bytes)
      rep.ledger.Rd.hbm
  in
  List.iteri
    (fun i h ->
      if i < top then
        Elk_util.Table.add_row hbm
          [
            string_of_int h.Rd.h_op; h.Rd.h_name;
            Printf.sprintf "%.2f" (h.Rd.h_bytes /. 1048576.);
            string_of_int h.Rd.h_moves;
            string_of_int h.Rd.h_reuse_distance;
          ])
    by_bytes;
  [ summary; waste; hbm ]

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

let print ?top rep =
  List.iter Elk_util.Table.print (tables ?top rep);
  let points =
    Ts.points rep.series ~horizon:rep.total "sram_occupancy_max_core_bytes"
  in
  if points <> [] then begin
    let vals = List.map (fun p -> p.Ts.mean) points in
    Printf.printf "SRAM occupancy over time (%d windows, peak %s KB/core):\n  %s\n"
      (List.length points) (kb rep.dyn_high_water) (sparkline vals)
  end

(* ---- JSON snapshot ---------------------------------------------------- *)

(* Round like the SLO snapshot so the committed file is stable under
   float noise. *)
let g v = J.number (float_of_string (Printf.sprintf "%.6g" v))

let to_json ?(top = 10) rep =
  let cap_cores = rep.capacity *. float_of_int rep.cores in
  let seg name kind dur =
    Printf.sprintf "{\"name\":%s,\"kind\":%s,\"resource\":\"sram\",\"dur\":%s}"
      (J.quote name) (J.quote kind) (g dur)
  in
  (* Waste in capacity-seconds: byte-seconds normalized by the chip's
     total SRAM, so segment durations live on the makespan's scale and
     Tracediff's threshold (a fraction of the old total) is meaningful. *)
  let segments =
    List.filteri (fun i _ -> i < top) rep.waste_rows
    |> List.map (fun row ->
           seg row.w_name "wasted-residency" ((row.w_pre +. row.w_post) /. cap_cores))
  in
  let segments =
    segments
    @ [
        seg "high_water" "occupancy"
          (rep.dyn_high_water /. Float.max 1e-12 rep.capacity *. rep.total);
      ]
  in
  let buffers =
    List.stable_sort
      (fun (a : Rd.buffer) b -> compare (b.Rd.bytes, a.Rd.op) (a.Rd.bytes, b.Rd.op))
      rep.ledger.Rd.buffers
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun (b : Rd.buffer) ->
           Printf.sprintf
             "{\"op\":%d,\"name\":%s,\"kind\":%s,\"bytes\":%s,\"cores\":%d,\"alloc_step\":%d,\"first_use\":%d,\"last_use\":%d,\"free_step\":%d}"
             b.Rd.op (J.quote b.Rd.name)
             (J.quote (Rd.kind_name b.Rd.kind))
             (g b.Rd.bytes) b.Rd.cores b.Rd.alloc_step b.Rd.first_use
             b.Rd.last_use b.Rd.free_step)
  in
  let hbm =
    List.stable_sort
      (fun a b -> compare (b.Rd.h_bytes, a.Rd.h_op) (a.Rd.h_bytes, b.Rd.h_op))
      rep.ledger.Rd.hbm
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun h ->
           Printf.sprintf
             "{\"op\":%d,\"name\":%s,\"bytes\":%s,\"moves\":%d,\"reuse_distance\":%d}"
             h.Rd.h_op (J.quote h.Rd.h_name) (g h.Rd.h_bytes) h.Rd.h_moves
             h.Rd.h_reuse_distance)
  in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"model\":%s," (J.quote rep.model);
      (* Tracediff-comparable core: total + segments *)
      Printf.sprintf "\"total\":%s,\"dominant\":\"sram\"," (g rep.total);
      Printf.sprintf "\"resource_seconds\":{\"sram\":%s},"
        (g ((rep.pre_waste +. rep.post_waste) /. cap_cores));
      Printf.sprintf "\"segments\":[%s]," (String.concat "," segments);
      (* Full memory payload *)
      Printf.sprintf "\"capacity_bytes\":%s,\"cores\":%d," (g rep.capacity)
        rep.cores;
      Printf.sprintf
        "\"dyn_high_water_bytes\":%s,\"static_high_water_bytes\":%s,\"static_high_water_step\":%d,"
        (g rep.dyn_high_water) (g rep.static_high_water)
        rep.static_high_water_step;
      Printf.sprintf "\"chip_peak_bytes\":%s,\"utilization\":%s,"
        (g rep.chip_peak)
        (g (rep.dyn_high_water /. Float.max 1e-12 rep.capacity));
      Printf.sprintf
        "\"pre_use_waste_byte_seconds\":%s,\"post_use_waste_byte_seconds\":%s,"
        (g rep.pre_waste) (g rep.post_waste);
      Printf.sprintf "\"buffers\":[%s]," (String.concat "," buffers);
      Printf.sprintf "\"hbm\":[%s]," (String.concat "," hbm);
      Printf.sprintf "\"series\":%s"
        (Ts.to_json rep.series ~horizon:rep.total ());
      "}";
    ]

(* ---- Perfetto counter tracks ------------------------------------------ *)

(* Distinct from the device timeline (pid 1), serving lanes (pid 7) and
   generic Timeseries counters (pid 9). *)
let mem_pid = 8

let chrome_counter_events rep =
  let capacity_track =
    (* A flat capacity line so the occupancy tracks read against it. *)
    List.map
      (fun ts ->
        Elk_obs.Chrome.counter_event ~pid:mem_pid ~name:"sram_capacity_bytes"
          ~ts ~value:rep.capacity ())
      [ 0.; rep.total ]
  in
  capacity_track
  @ List.concat_map
      (fun name ->
        Ts.chrome_counter_events rep.series ~horizon:rep.total ~pid:mem_pid
          name)
      series_names
