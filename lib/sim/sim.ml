open Elk_arch
module P = Elk_partition.Partition
module N = Elk_noc.Noc

type op_trace = {
  pre_start : float;
  hbm_end : float;
  pre_end : float;
  pre_wait : float;
  exe_start : float;
  dist_end : float;
  dist_wait : float;
  compute_end : float;
  exe_end : float;
  ex_wait : float;
  device_bytes : float;
  inject_bytes : float;
  dist_bytes : float;
  exchange_bytes : float;
  core_tile : float array;
  core_dist_done : float array;
  core_dist_wait : float array;
  core_ex_done : float array;
  core_ex_wait : float array;
}

type result = {
  total : float;
  bd : Elk.Timeline.breakdown;
  hbm_util : float;
  noc_util : float;
  noc_util_split : float * float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_trace array;
  hbm_requests : int;
  perf : Perfcore.t;
  events : Critpath.event array option;
  mem : Memtrace.t option;
  noc : Noctrace.t option;
}

(* Per-link reservation state, split into two traffic classes sharing each
   link as a fluid (the hardware interleaves HBM-preload packets with
   inter-core packets; an eager exclusive booking would let the preload
   chain starve execution transfers issued later in simulation order but
   earlier in time).  The preload class receives at most the share the HBM
   can sustain per core (capped at [max_preload_share]); execution-phase
   transfers run in the remaining capacity.  Controller ports belong to
   the preload class alone.  Each class books links exclusively within its
   own share (cut-through flow model): fan-out from one controller
   pipelines, a single receiver port serializes. *)
type fabric = {
  eff : float array;  (** effective bandwidth of this class, by link id. *)
  free : float array;  (** when each link frees for this class, by link id. *)
  core_side : bool array;
      (** by link id: not a controller port.  Only these links count in
          [link_volume]. *)
  link_volume : float array;
      (** one cell: bytes x links traversed on core-side links
          (hop-weighted), for the per-link interconnect-utilization metric
          of Fig 18c/21.  A float array, so adding to it boxes nothing. *)
}

let max_preload_share = 0.7

(* The preload class's fluid share of each link: bounded by what the HBM
   can feed, by a fairness cap, and by the schedule's actual average
   preload demand (with 2x headroom for burstiness) — a fat HBM that the
   model barely uses must not starve execution transfers. *)
let preload_share chip (s : Elk.Schedule.t) =
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  let cores = float_of_int chip.Arch.cores in
  let inject_total =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.popt.P.noc_inject_bytes)
      0. s.Elk.Schedule.entries
  in
  let exec_lb =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.dist_time +. e.Elk.Schedule.plan.P.exec_time)
      0. s.Elk.Schedule.entries
  in
  let device_total =
    Array.fold_left
      (fun a e -> a +. e.Elk.Schedule.popt.P.hbm_device_bytes)
      0. s.Elk.Schedule.entries
  in
  let t_lb = Float.max 1e-9 (Float.max exec_lb (device_total /. chip.Arch.hbm_bandwidth)) in
  match chip.Arch.topology with
  | Arch.Mesh2d { rows; cols } ->
      (* Mesh edges carry aggregated flows; demand per edge is
         hop-weighted. *)
      let edges = float_of_int (2 * ((rows * (cols - 1)) + (cols * (rows - 1)))) in
      let avg_hops = float_of_int (rows + cols) /. 3. in
      let demand = inject_total *. avg_hops /. (edges *. link_bw) /. t_lb in
      Float.max 0.05 (Float.min 0.5 (2. *. demand))
  | Arch.All_to_all | Arch.Clustered _ ->
      (* A core's inbound port sees at most its share of the HBM feed as
         preload traffic; on a clustered chip the shared L2 additionally
         serializes both classes via its own bookings. *)
      let r_pre = chip.Arch.hbm_bandwidth /. cores in
      let demand = inject_total /. cores /. link_bw /. t_lb in
      Float.max 0.05
        (Float.min (Float.min max_preload_share (r_pre /. link_bw)) (2. *. demand))

(* Controller ports carry only preload traffic: they run at full rate and
   stay out of the core-side volume. *)
let core_side_links noc =
  Array.init (N.num_links noc) (fun id ->
      match N.link_of_id noc id with N.Port_out (N.Hbm _) -> false | _ -> true)

let fabric_of ~share ~core_side noc =
  let n = N.num_links noc in
  let eff =
    Array.init n (fun id ->
        let bw = N.link_bandwidth noc (N.link_of_id noc id) in
        if core_side.(id) then bw *. share else bw)
  in
  { eff; free = Array.make n 0.; core_side; link_volume = [| 0. |] }

(* Books [bytes] along a route table entry and writes the completion
   time and the queuing delay into [fin.(c)] and [wait.(c)].  Inlined
   into its two callers, so that no float is boxed per transfer.  With
   [nt], the exact per-link reservations (and the transfer envelope) are
   mirrored into a Noctrace record — pure bookkeeping, never read back
   into timing. *)
let[@inline] transfer ?nt f (p : N.path) ~cls ~op ~bytes ~not_before fin wait c =
  let ids = p.N.ids in
  if Array.length ids = 0 || bytes <= 0. then begin
    fin.(c) <- not_before;
    wait.(c) <- 0.
  end
  else begin
    let start = ref not_before and bottleneck = ref infinity in
    for k = 0 to Array.length ids - 1 do
      let l = ids.(k) in
      start := Float.max !start f.free.(l);
      bottleneck := Float.min !bottleneck f.eff.(l)
    done;
    let start = !start in
    for k = 0 to Array.length ids - 1 do
      let l = ids.(k) in
      if f.core_side.(l) then f.link_volume.(0) <- f.link_volume.(0) +. bytes;
      f.free.(l) <- start +. (bytes /. f.eff.(l))
    done;
    let finish = start +. p.N.latency +. (bytes /. !bottleneck) in
    (match nt with
    | None -> ()
    | Some nt ->
        Noctrace.record_path nt ~cls ~op p ~eff:f.eff ~bytes ~wait:(start -. not_before)
          ~t_start:start ~t_end:finish);
    fin.(c) <- finish;
    wait.(c) <- start -. not_before
  end

(* [Array.fold_left Float.max from a], unboxed. *)
let[@inline] max_fold from (a : float array) =
  let m = ref from in
  for c = 0 to Array.length a - 1 do
    m := Float.max !m a.(c)
  done;
  !m

(* Aggregate capacity of the core-side interconnect links: ports for the
   all-to-all fabric, directed edges plus boundary entry links for the
   mesh.  The utilization metric divides hop-weighted traffic by this. *)
let fabric_capacity chip =
  let link = chip.Arch.intercore_link.Arch.bandwidth in
  match chip.Arch.topology with
  | Arch.All_to_all -> 2. *. float_of_int chip.Arch.cores *. link
  | Arch.Clustered { l2_bandwidth; _ } ->
      (2. *. float_of_int chip.Arch.cores *. link) +. l2_bandwidth
  | Arch.Mesh2d { rows; cols } ->
      let edges = 2 * ((rows * (cols - 1)) + (cols * (rows - 1))) in
      let entries = 2 * cols in
      float_of_int (edges + entries) *. link

(* Core [core]'s deterministic skew unit on operator [op], in [0, 1]; its
   tile time is scaled by [1 - skew + 2 skew unit]. *)
let hash_unit core op = float_of_int (Hashtbl.hash (core, op, "skew") land 0xFFFF) /. 65535.

(* [hash_unit], tabulated: row [op] holds cores [0 .. length - 1].  The
   table is process-wide and filled on first use.  A published row is
   never written: a domain that needs a longer row or a new op builds the
   rows and publishes a new outer array by compare-and-set, and tries
   again if another domain published first.  The values are a pure
   function of two ints, so a lost race costs only work and nothing
   needs a reset. *)
let skew_table : float array array Atomic.t = Atomic.make [||]

(* The table once every op below [ops] has a row of at least [cores op]
   cores. *)
let rec skew_rows ~ops ~cores =
  let rows = Atomic.get skew_table in
  let row op = if op < Array.length rows then rows.(op) else [||] in
  let short op = Array.length (row op) < cores op in
  let rec any_short op = op < ops && (short op || any_short (op + 1)) in
  if not (any_short 0) then rows
  else begin
    let grown =
      Array.init (max ops (Array.length rows)) (fun op ->
          let have = row op in
          if op < ops && short op then
            Array.init (max (cores op) (2 * Array.length have)) (fun c ->
                if c < Array.length have then have.(c) else hash_unit c op)
          else have)
    in
    if Atomic.compare_and_set skew_table rows grown then grown else skew_rows ~ops ~cores
  end

let skew_unit ~core ~op =
  if core < 0 || op < 0 then invalid_arg "Sim.skew_unit: negative core or op";
  let rows = Atomic.get skew_table in
  if op < Array.length rows && core < Array.length rows.(op) then rows.(op).(core)
  else (skew_rows ~ops:(op + 1) ~cores:(fun o -> if o = op then core + 1 else 0)).(op).(core)

(* The causal parent of a gate [max a b]: the argument that bound it.
   Ties go to [on_b] (callers pass the data-dependency side there). *)
let binding ~a ~on_a ~b ~on_b = if on_b < 0 || (a > b && on_a >= 0) then on_a else on_b

(* The causal event DAG (Critpath), replayed from the per-op phase times
   after the event loop: program order fixes every gate, so the replay
   knows what the loop knew when each event started.  Ids are dense in
   emission order; -1 stands for "no event yet". *)
let causal_events (program : Elk.Program.t) (per_op : op_trace array) =
  let log = ref [] and n_events = ref 0 in
  let emit ~op ~kind ~t_start ~t_end ~parent ~deps ~port_wait =
    let id = !n_events in
    incr n_events;
    log :=
      {
        Critpath.id; op; kind; t_start; t_end;
        parent = (if parent < 0 then None else Some parent);
        deps = List.sort_uniq compare (List.filter (fun d -> d >= 0) deps);
        port_wait;
      }
      :: !log;
    id
  in
  let last_exec = ref (-1) and last_pre = ref (-1) in
  let pre_done = Array.make (Array.length per_op) (-1) in
  let exec_ready = ref 0. and preload_free = ref 0. in
  Array.iter
    (function
      | Elk.Program.Preload_async op ->
          let o = per_op.(op) in
          (* Ties go to the preload chain: rule 2 is the tighter
             sequencing constraint at equal times. *)
          let parent =
            binding ~a:!exec_ready ~on_a:!last_exec ~b:!preload_free ~on_b:!last_pre
          in
          let deps = [ !last_exec; !last_pre ] in
          let last =
            if o.device_bytes <= 0. then
              emit ~op ~kind:Critpath.Preload_issue ~t_start:o.pre_start
                ~t_end:o.pre_start ~parent ~deps ~port_wait:0.
            else
              let read =
                emit ~op ~kind:Critpath.Hbm_read ~t_start:o.pre_start ~t_end:o.hbm_end
                  ~parent ~deps ~port_wait:0.
              in
              emit ~op ~kind:Critpath.Preload_deliver ~t_start:o.hbm_end
                ~t_end:(Float.max o.hbm_end o.pre_end) ~parent:read ~deps:[ read ]
                ~port_wait:o.pre_wait
          in
          pre_done.(op) <- last;
          last_pre := last;
          preload_free := o.pre_end
      | Elk.Program.Execute op ->
          let o = per_op.(op) in
          (* Ties go to the preload side: at equal times the data
             dependency (§4.5 rule 3) is the enabling completion. *)
          let parent =
            binding ~a:!exec_ready ~on_a:!last_exec ~b:o.pre_end ~on_b:pre_done.(op)
          in
          let dist =
            emit ~op ~kind:Critpath.Distribute ~t_start:o.exe_start ~t_end:o.dist_end
              ~parent ~deps:[ !last_exec; pre_done.(op) ] ~port_wait:o.dist_wait
          in
          let comp =
            emit ~op ~kind:Critpath.Tile_compute ~t_start:o.dist_end
              ~t_end:o.compute_end ~parent:dist ~deps:[ dist ] ~port_wait:0.
          in
          last_exec :=
            emit ~op ~kind:Critpath.Exchange ~t_start:o.compute_end ~t_end:o.exe_end
              ~parent:comp ~deps:[ comp ] ~port_wait:o.ex_wait;
          exec_ready := o.exe_end)
    program.Elk.Program.instrs;
  Array.of_list (List.rev !log)

(* The SRAM-residency record (Memtrace): each op's phase times with the
   buffer sizes the schedule fixed. *)
let residency ~cores (s : Elk.Schedule.t) per_op =
  Memtrace.make ~cores
    (Array.mapi
       (fun o t ->
         let e = s.Elk.Schedule.entries.(o) in
         {
           Memtrace.m_reserve = t.pre_start;
           m_deliver = t.pre_end;
           m_first_use = t.exe_start;
           m_release = t.exe_end;
           m_tail_start = t.compute_end;
           m_preload_bytes = e.Elk.Schedule.popt.P.preload_space;
           m_exec_bytes = e.Elk.Schedule.plan.P.exec_space;
           m_exec_cores = e.Elk.Schedule.plan.P.cores_used;
         })
       per_op)

(* Core [c]'s communication seconds in a ring phase that began at [t0]:
   its transfer's span less its queueing. *)
let ring_comm ~t0 fin wait c = Float.max 0. (fin.(c) -. t0 -. wait.(c))

(* Core [c]'s share of a ring phase over [t0, t_end]: its transfer, its
   queueing, then idle until the slowest peer's transfer ends. *)
let ring_buckets (b : Perfcore.buckets) c ~t0 ~t_end fin wait =
  if Array.length fin > 0 then begin
    b.exchange <- b.exchange +. ring_comm ~t0 fin wait c;
    b.port <- b.port +. wait.(c);
    b.idle <- b.idle +. (t_end -. fin.(c))
  end

(* Perfcore's buckets and attribution, derived from the per-op phase
   times in execute order (op id order): every core's share of
   [prev_ready, exe_end] goes into the five buckets, and the operator's
   critical-path span into per-resource time.  The pieces are
   accumulated independently (not as remainders of the makespan), so
   Perfcore.check genuinely verifies that no time leaks. *)
let attribution ~cores per_op =
  let perf = Perfcore.create ~cores ~ops:(Array.length per_op) in
  let per_core = perf.Perfcore.per_core in
  let prev_ready = ref 0. in
  for op = 0 to Array.length per_op - 1 do
    let o = per_op.(op) in
    let start = o.exe_start in
    let gap = start -. !prev_ready in
    let pre_len = o.pre_end -. o.pre_start in
    let hbm_frac = if pre_len > 0. then (o.hbm_end -. o.pre_start) /. pre_len else 0. in
    let dist_len = o.dist_end -. start in
    let compute_len = o.compute_end -. o.dist_end in
    let ex_len = o.exe_end -. o.compute_end in
    let at = perf.Perfcore.per_op.(op) in
    at.Perfcore.a_hbm <- gap *. hbm_frac;
    at.Perfcore.a_interconnect <-
      (gap *. (1. -. hbm_frac)) +. (dist_len -. o.dist_wait) +. (ex_len -. o.ex_wait);
    at.Perfcore.a_compute <- compute_len;
    at.Perfcore.a_port <- o.dist_wait +. o.ex_wait;
    let ncores = Array.length o.core_tile in
    for c = 0 to Array.length per_core - 1 do
      let b = per_core.(c) in
      b.preload_wait <- b.preload_wait +. gap;
      if c < ncores then begin
        ring_buckets b c ~t0:start ~t_end:o.dist_end o.core_dist_done o.core_dist_wait;
        let t_c = o.core_tile.(c) in
        b.compute <- b.compute +. t_c;
        b.idle <- b.idle +. (compute_len -. t_c);
        ring_buckets b c ~t0:o.compute_end ~t_end:o.exe_end o.core_ex_done o.core_ex_wait
      end
      else b.idle <- b.idle +. (o.exe_end -. start)
    done;
    prev_ready := o.exe_end
  done;
  perf

type series = {
  hbm : Elk_util.Series.t;
  noc : Elk_util.Series.t;
  intercore : Elk_util.Series.t;
  core_busy : Elk_util.Series.t array;
}

(* Contributions are added in program order: Series folds over its list,
   so the order fixes the low bits of every bin. *)
let series (s : Elk.Schedule.t) r =
  let module S = Elk_util.Series in
  let hbm = S.create () and noc = S.create () and intercore = S.create () in
  let core_busy = Array.map (fun _ -> S.create ()) r.perf.Perfcore.per_core in
  let phase series ~t_start ~t_end volume =
    if volume > 0. && t_end > t_start then S.add series ~t_start ~t_end ~volume
  in
  let busy c ~t_start ~t_end v =
    if v > 0. then S.add core_busy.(c) ~t_start ~t_end ~volume:v
  in
  (* Core [c]'s transfer in a ring phase that began at [t0]. *)
  let ring c ~t0 fin wait =
    if Array.length fin > 0 then begin
      let comm = ring_comm ~t0 fin wait c in
      busy c ~t_start:(fin.(c) -. comm) ~t_end:fin.(c) comm
    end
  in
  Array.iter
    (function
      | Elk.Program.Preload_async op ->
          let o = r.per_op.(op) in
          phase hbm ~t_start:o.pre_start ~t_end:o.hbm_end o.device_bytes;
          phase noc ~t_start:o.pre_start ~t_end:o.pre_end o.inject_bytes
      | Elk.Program.Execute op ->
          let o = r.per_op.(op) in
          List.iter
            (fun series ->
              phase series ~t_start:o.exe_start ~t_end:o.dist_end o.dist_bytes;
              phase series ~t_start:o.compute_end ~t_end:o.exe_end o.exchange_bytes)
            [ noc; intercore ];
          Array.iteri
            (fun c t_c ->
              ring c ~t0:o.exe_start o.core_dist_done o.core_dist_wait;
              busy c ~t_start:o.dist_end ~t_end:(o.dist_end +. t_c) t_c;
              ring c ~t0:o.compute_end o.core_ex_done o.core_ex_wait)
            o.core_tile)
    (Elk.Program.of_schedule s).Elk.Program.instrs;
  { hbm; noc; intercore; core_busy }

let run_impl ~skew ~record ~record_mem ~record_noc ctx (s : Elk.Schedule.t) =
  (match Elk.Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sim.run: invalid schedule: " ^ m));
  let chip = P.ctx_chip ctx in
  let cores = chip.Arch.cores in
  Array.iter
    (fun (e : Elk.Schedule.op_entry) ->
      let used = e.Elk.Schedule.plan.P.cores_used in
      if used > cores then
        invalid_arg
          (Printf.sprintf "Sim.run: op %d uses %d cores but the chip has %d"
             e.Elk.Schedule.node_id used cores))
    s.Elk.Schedule.entries;
  let noc = N.create chip in
  let pre_share = preload_share chip s in
  let core_side = core_side_links noc in
  let fg_fabric = fabric_of ~share:(1. -. pre_share) ~core_side noc in
  let pre_fabric = fabric_of ~share:pre_share ~core_side noc in
  let hbm_dev = Elk_hbm.Hbm.create (Elk_hbm.Hbm.config_for_bandwidth chip.Arch.hbm_bandwidth) in
  let n = Elk.Schedule.num_ops s in
  let entries = s.Elk.Schedule.entries in
  let graph = s.Elk.Schedule.graph in
  (* Sequential tensor placement in HBM (paper §5). *)
  let offsets = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    offsets.(i) <- !acc;
    acc := !acc +. entries.(i).Elk.Schedule.popt.P.hbm_device_bytes
  done;
  let program = Elk.Program.of_schedule s in
  let skew_units =
    skew_rows ~ops:n ~cores:(fun op -> entries.(op).Elk.Schedule.plan.P.cores_used)
  in
  (* Each preload's times, until its execute builds the op's trace:
     where the HBM read ends (for splitting the execute's preload stall
     between the HBM floor and delivery) and the delivery stall.
     [Program.of_schedule] executes ops in id order, so the traces come
     out in id order too. *)
  let pre_start = Array.make n 0. and pre_end = Array.make n 0. in
  let hbm_end = Array.make n 0. and pre_wait = Array.make n 0. in
  let traces = ref [] in
  let exec_ready = ref 0. in
  let preload_free = ref 0. in
  let stall_interconnect = ref 0. in
  let stall_pre = ref 0. and stall_dist = ref 0. and stall_ex = ref 0. in
  (* Observability accumulators: issued-but-not-yet-executed preload queue
     depth, HBM device occupancy, and execute time lost waiting on its own
     preload.  Plain int/float updates — negligible next to the flow
     model — recorded into the metrics registry only when enabled. *)
  let pending = ref 0 and max_pending = ref 0 in
  let hbm_busy = ref 0. and preload_wait = ref 0. in
  (* The all-to-all preload fan-out books ports directly.  The other
     fabrics book each core's preload route ([N.preload_routes]). *)
  let port_in, ctrl_out =
    match chip.Arch.topology with
    | Arch.All_to_all ->
        ( Array.init cores (fun c -> N.link_id noc (N.Port_in (N.Core c))),
          Array.init chip.Arch.hbm_controllers (fun h -> N.link_id noc (N.Port_out (N.Hbm h))) )
    | Arch.Mesh2d _ | Arch.Clustered _ -> ([||], [||])
  in
  let nrec = if record_noc then Some (Noctrace.create noc) else None in
  (* One ring phase of an execute: each of the op's [ncores] cores
     receives [bytes] along its route of [ring] on the execution class,
     not before [not_before].  Returns each core's completion and port
     wait; both are empty when nothing moves. *)
  let ring ring_routes ~op ~ncores ~cls ~bytes ~not_before =
    if bytes > 0. then begin
      let paths = ring_routes noc ~ncores in
      let fin = Array.make ncores not_before and wait = Array.make ncores 0. in
      for c = 0 to ncores - 1 do
        transfer ?nt:nrec fg_fabric paths.(c) ~cls ~op ~bytes ~not_before fin wait c
      done;
      (fin, wait)
    end
    else ([||], [||])
  in
  (* A ring phase's ideal length at the execution class's share. *)
  let ideal_path = N.path noc ~src:(N.Core 0) ~dst:(N.Core (min 1 (cores - 1))) in
  let ring_ideal bytes =
    if bytes > 0. then N.path_time ideal_path ~bytes /. (1. -. pre_share) else 0.
  in
  (* A mesh or clustered preload's per-core completion, written by
     [transfer]; its queueing is not read. *)
  let pre_fin = [| 0. |] and pre_q = [| 0. |] in
  let instrs = program.Elk.Program.instrs in
  for i = 0 to Array.length instrs - 1 do
    match instrs.(i) with
    | Elk.Program.Preload_async op ->
        let popt = entries.(op).Elk.Schedule.popt in
        incr pending;
        if !pending > !max_pending then max_pending := !pending;
        (* Rule (1): every execute issued earlier blocks this preload;
           rule (2): preloads are sequential. *)
        let gate = Float.max !exec_ready !preload_free in
        if popt.P.hbm_device_bytes <= 0. then begin
          pre_start.(op) <- gate;
          hbm_end.(op) <- gate;
          pre_end.(op) <- gate;
          preload_free := gate
        end
        else begin
          let hbm_done =
            Elk_hbm.Hbm.read hbm_dev ~now:gate ~offset:offsets.(op)
              ~bytes:popt.P.hbm_device_bytes
          in
          hbm_busy := !hbm_busy +. (hbm_done -. gate);
          hbm_end.(op) <- hbm_done;
          (* Controllers stream to every core in parallel; each core
             receives its preload-space bytes through its own port.  On
             the all-to-all fabric the delivery is a fluid broadcast:
             each controller pushes its cores' chunks simultaneously, so
             the phase takes the max of the controller service time and
             the per-core inbound time.  On the mesh each core's chunk
             is routed hop by hop and aggregation on shared edges is
             captured by per-transfer bookings. *)
          let per_core = popt.P.noc_inject_bytes /. float_of_int cores in
          let finish = ref hbm_done in
          let ideal = ref 0. in
          (match chip.Arch.topology with
          | Arch.All_to_all ->
              let nctrl = chip.Arch.hbm_controllers in
              (* Every core's inbound port runs at the same rate. *)
              let inbound = per_core /. pre_fabric.eff.(port_in.(0)) in
              for h = 0 to nctrl - 1 do
                (* Controller [h] serves cores h, h + nctrl, h + 2 nctrl, ... *)
                let ctrl_cores = (cores + nctrl - 1 - h) / nctrl in
                let ctrl_volume = per_core *. float_of_int ctrl_cores in
                let out = ctrl_out.(h) in
                let start = Float.max gate pre_fabric.free.(out) in
                let ctrl_service = ctrl_volume /. pre_fabric.eff.(out) in
                pre_fabric.free.(out) <- start +. ctrl_service;
                (match nrec with
                | Some nt when per_core > 0. ->
                    Noctrace.record_booking nt ~cls:Noctrace.Preload ~op ~link:out
                      ~bytes:ctrl_volume ~t_start:start ~t_end:(start +. ctrl_service)
                | _ -> ());
                for k = 0 to ctrl_cores - 1 do
                  let c = h + (k * nctrl) in
                  let inp = port_in.(c) in
                  let s = Float.max start pre_fabric.free.(inp) in
                  pre_fabric.free.(inp) <- s +. inbound;
                  pre_fabric.link_volume.(0) <- pre_fabric.link_volume.(0) +. per_core;
                  let delivered =
                    s +. Float.max inbound ctrl_service +. chip.Arch.intercore_link.Arch.latency
                  in
                  (match nrec with
                  | Some nt when per_core > 0. ->
                      Noctrace.record_booking nt ~cls:Noctrace.Preload ~op ~link:inp
                        ~bytes:per_core ~t_start:s ~t_end:(s +. inbound);
                      Noctrace.record_transfer nt ~cls:Noctrace.Preload ~op ~src:(N.Hbm h)
                        ~dst:(N.Core c) ~bytes:per_core ~hops:2 ~wait:(s -. gate) ~t_start:s
                        ~t_end:delivered
                  | _ -> ());
                  finish := Float.max !finish delivered
                done;
                ideal := Float.max !ideal (gate +. Float.max ctrl_service inbound)
              done
          | Arch.Mesh2d _ | Arch.Clustered _ ->
              let paths = N.preload_routes noc in
              for c = 0 to cores - 1 do
                let p = paths.(c) in
                transfer ?nt:nrec pre_fabric p ~cls:Noctrace.Preload ~op ~bytes:per_core
                  ~not_before:gate pre_fin pre_q 0;
                ideal :=
                  Float.max !ideal
                    (gate +. (N.path_time p ~bytes:per_core /. Float.max 1e-9 pre_share));
                finish := Float.max !finish pre_fin.(0)
              done);
          let d = Float.max 0. (!finish -. Float.max !ideal hbm_done) in
          stall_pre := !stall_pre +. d;
          stall_interconnect := !stall_interconnect +. d;
          pre_start.(op) <- gate;
          pre_end.(op) <- !finish;
          pre_wait.(op) <- d;
          preload_free := !finish
        end
    | Elk.Program.Execute op ->
        let e = entries.(op) in
        let plan = e.Elk.Schedule.plan in
        let node = Elk_model.Graph.get graph op in
        let start = Float.max !exec_ready pre_end.(op) in
        if !pending > 0 then decr pending;
        preload_wait := !preload_wait +. Float.max 0. (pre_end.(op) -. !exec_ready);
        let ncores = plan.P.cores_used in
        (* Phase 1: data distribution (preload-state to execute-state),
           ring transfers from sharing-group peers. *)
        let dist_per_core = e.Elk.Schedule.popt.P.dist_bytes_per_core in
        let dist_done, dist_wait =
          ring N.distribution_ring ~op ~ncores ~cls:Noctrace.Distribute ~bytes:dist_per_core
            ~not_before:start
        in
        let dist_end = max_fold start dist_done in
        let sd = Float.max 0. (dist_end -. start -. ring_ideal dist_per_core) in
        stall_dist := !stall_dist +. sd;
        stall_interconnect := !stall_interconnect +. sd;
        (* Phase 2: per-core tile computation (slowest core binds). *)
        let t_tile =
          Elk_cost.Device.exec_time chip ~kind:node.Elk_model.Graph.op.Elk_tensor.Opspec.kind
            ~iter:plan.P.tile
        in
        let units = skew_units.(op) in
        let tile = Array.make ncores 0. in
        let compute_end = ref dist_end in
        for c = 0 to ncores - 1 do
          let t_c = t_tile *. (1. -. skew +. (2. *. skew *. units.(c))) in
          tile.(c) <- t_c;
          compute_end := Float.max !compute_end (dist_end +. t_c)
        done;
        let compute_end = !compute_end in
        (* Phase 3: exchange/reduction of shared activations and partial
           results. *)
        let ex_per_core = plan.P.exchange_bytes_per_core in
        let ex_done, ex_wait =
          ring N.exchange_ring ~op ~ncores ~cls:Noctrace.Exchange ~bytes:ex_per_core
            ~not_before:compute_end
        in
        let ex_end = max_fold compute_end ex_done in
        let se = Float.max 0. (ex_end -. compute_end -. ring_ideal ex_per_core) in
        stall_ex := !stall_ex +. se;
        stall_interconnect := !stall_interconnect +. se;
        (* A phase's port wait: the longest any core queued, capped at
           the phase length. *)
        let port_wait len w = Float.min len (max_fold 0. w) in
        let popt = e.Elk.Schedule.popt in
        traces :=
          {
            pre_start = pre_start.(op);
            hbm_end = hbm_end.(op);
            pre_end = pre_end.(op);
            pre_wait = pre_wait.(op);
            exe_start = start;
            dist_end;
            dist_wait = port_wait (dist_end -. start) dist_wait;
            compute_end;
            exe_end = ex_end;
            ex_wait = port_wait (ex_end -. compute_end) ex_wait;
            device_bytes = popt.P.hbm_device_bytes;
            inject_bytes = popt.P.noc_inject_bytes;
            dist_bytes = dist_per_core *. float_of_int ncores;
            exchange_bytes = ex_per_core *. float_of_int ncores;
            core_tile = tile;
            core_dist_done = dist_done;
            core_dist_wait = dist_wait;
            core_ex_done = ex_done;
            core_ex_wait = ex_wait;
          }
          :: !traces;
        exec_ready := ex_end
  done;
  let per_op = Array.of_list (List.rev !traces) in
  let total = per_op.(n - 1).exe_end in
  (let module M = Elk_obs.Metrics in
   M.incr "elk_sim_runs_total" ~help:"Simulator invocations";
   M.incr "elk_sim_events_total"
     ~by:(float_of_int (Array.length program.Elk.Program.instrs))
     ~help:"Device program instructions interpreted (preloads + executes)";
   M.incr "elk_sim_interconnect_stall_seconds_total" ~by:!stall_interconnect
     ~help:"Simulated time lost to interconnect contention";
   M.incr "elk_sim_preload_contention_seconds_total" ~by:!stall_pre
     ~help:"Interconnect stall during preload delivery";
   M.incr "elk_sim_distribute_contention_seconds_total" ~by:!stall_dist
     ~help:"Interconnect stall during data distribution";
   M.incr "elk_sim_exchange_contention_seconds_total" ~by:!stall_ex
     ~help:"Interconnect stall during exchange/reduction";
   M.incr "elk_sim_hbm_busy_seconds_total" ~by:!hbm_busy
     ~help:"Simulated HBM device occupancy across preload reads";
   M.incr "elk_sim_hbm_stall_seconds_total" ~by:!preload_wait
     ~help:"Execute time spent waiting on the operator's own preload";
   M.observe "elk_sim_preload_queue_depth" (float_of_int !max_pending)
     ~help:"Peak issued-but-unexecuted preload queue depth per run");
  let pre_iv = List.init n (fun o -> (per_op.(o).pre_start, per_op.(o).pre_end)) in
  let exe_iv = List.init n (fun o -> (per_op.(o).exe_start, per_op.(o).exe_end)) in
  let a =
    Elk.Timeline.account chip s ~pre:pre_iv ~exe:exe_iv ~stall:!stall_interconnect ~total
  in
  let stats = Elk_hbm.Hbm.stats hbm_dev in
  Elk_obs.Metrics.incr "elk_sim_hbm_requests_total"
    ~by:(float_of_int stats.Elk_hbm.Hbm.requests)
    ~help:"HBM device requests issued";
  {
    total;
    bd = a.Elk.Timeline.bd;
    hbm_util = a.hbm_util;
    noc_util =
      (if total > 0. then
         (fg_fabric.link_volume.(0) +. pre_fabric.link_volume.(0))
         /. (fabric_capacity chip *. total)
       else 0.);
    noc_util_split =
      (if total > 0. then
         let d = fabric_capacity chip *. total in
         (fg_fabric.link_volume.(0) /. d, pre_fabric.link_volume.(0) /. d)
       else (0., 0.));
    intercore_volume = a.intercore_volume;
    inject_volume = a.inject_volume;
    hbm_device_volume = a.hbm_device_volume;
    achieved_flops = a.achieved_flops;
    per_op;
    hbm_requests = stats.Elk_hbm.Hbm.requests;
    perf = attribution ~cores:chip.Arch.cores per_op;
    events = (if record then Some (causal_events program per_op) else None);
    mem = (if record_mem then Some (residency ~cores:chip.Arch.cores s per_op) else None);
    noc = nrec;
  }

let run ?(skew = 0.02) ?(events = false) ?(mem = false) ?(noc = false) ctx
    (s : Elk.Schedule.t) =
  Elk_obs.Span.with_span "sim-run"
    ~attrs:[ ("ops", string_of_int (Elk.Schedule.num_ops s)) ]
    (fun () -> run_impl ~skew ~record:events ~record_mem:mem ~record_noc:noc ctx s)

let compare_with_timeline ctx s =
  let sim = run ctx s in
  let tl = Elk.Timeline.evaluate ctx s in
  if sim.total <= 0. then 0.
  else Float.abs (sim.total -. tl.Elk.Timeline.total) /. sim.total
