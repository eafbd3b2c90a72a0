open Elk_arch
module P = Elk_partition.Partition

type op_times = {
  pre_start : float;
  pre_end : float;
  exe_start : float;
  exe_end : float;
}

type breakdown = {
  preload_only : float;
  execute_only : float;
  overlapped : float;
  interconnect : float;
}

type account = {
  bd : breakdown;
  hbm_util : float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
}

type result = {
  total : float;
  bd : breakdown;
  hbm_util : float;
  noc_util : float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_times array;
}

(* The maximal runs of a list of closed intervals, as start and stop
   arrays in increasing order: the empty ones ([stop <= start], or NaN)
   dropped, the rest sorted by start and merged where they overlap or
   touch.  A run starts at its first interval's start and stops at the
   largest stop among its intervals. *)
let runs intervals =
  let iv = Array.of_list (List.filter (fun (a, b) -> b > a) intervals) in
  Array.stable_sort (fun (a, _) (c, _) -> Float.compare a c) iv;
  let n = Array.length iv in
  let starts = Array.make n 0. and stops = Array.make n 0. in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    let a, b = iv.(i) in
    if !k >= 0 && a <= stops.(!k) then stops.(!k) <- Float.max stops.(!k) b
    else begin
      incr k;
      starts.(!k) <- a;
      stops.(!k) <- b
    end
  done;
  (!k + 1, starts, stops)

(* Run lengths summed in order from the first run. *)
let runs_measure (n, starts, stops) =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (stops.(i) -. starts.(i))
  done;
  !acc

(* The overlaps of two run lists, merged once in order: each overlap of
   positive length is one maximal run of the intersection, since the
   runs of each side are apart by a positive gap.  Their lengths are
   summed in order from the first. *)
let runs_overlap (nx, xs, xe) (ny, ys, ye) =
  let acc = ref 0. and i = ref 0 and j = ref 0 in
  while !i < nx && !j < ny do
    let lo = Float.max xs.(!i) ys.(!j) and hi = Float.min xe.(!i) ye.(!j) in
    if hi > lo then acc := !acc +. (hi -. lo);
    if xe.(!i) < ye.(!j) then incr i else incr j
  done;
  !acc

let union_measure intervals = runs_measure (runs intervals)
let intersection_measure xs ys = runs_overlap (runs xs) (runs ys)

(* The §4.5 forward replay, written once.  Preloads are issued in
   position order on one channel, lazily as execution advances: a
   position in window [w] waits for the channel and, from window 2 on,
   for the end of execute [w-2]; every position of windows up to [i+1]
   is issued before execute [i] is placed.  Execute [i] starts at the
   later of its predecessor's end and its own preload's end and lasts
   [dist_time +. exec_time] plus [stall], which sees the first [issued]
   preload positions and this execute's start and base span. *)
let replay name (s : Schedule.t) ~stall =
  (match Schedule.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Timeline." ^ name ^ ": " ^ m));
  let n = Schedule.num_ops s in
  let step = Schedule.preload_step s in
  let pre_start = Array.make n 0. and pre_end = Array.make n 0. in
  let exe_start = Array.make n 0. and exe_end = Array.make n 0. in
  let issued = ref 0 in
  let pre_channel_free = ref 0. in
  for i = 0 to n - 1 do
    while !issued < n && step.(!issued) <= i + 1 do
      let op = s.Schedule.order.(!issued) in
      let w = step.(!issued) in
      let gate = if w <= 1 then 0. else exe_end.(w - 2) in
      let st = Float.max !pre_channel_free gate in
      pre_start.(op) <- st;
      pre_end.(op) <- st +. s.Schedule.entries.(op).Schedule.preload_len;
      pre_channel_free := pre_end.(op);
      incr issued
    done;
    let entry = s.Schedule.entries.(i) in
    let prev_end = if i = 0 then 0. else exe_end.(i - 1) in
    let start = Float.max prev_end pre_end.(i) in
    let base_span = entry.Schedule.dist_time +. entry.Schedule.plan.P.exec_time in
    exe_start.(i) <- start;
    exe_end.(i) <-
      start +. base_span +. stall ~issued:!issued ~pre_start ~pre_end i ~start ~base_span
  done;
  (* Preloads that were never issued would be a validate failure; assert. *)
  assert (!issued = n);
  (pre_start, pre_end, exe_start, exe_end)

let account chip (s : Schedule.t) ~pre ~exe ~stall ~total : account =
  let pre = runs pre and exe = runs exe in
  let pre_m = runs_measure pre and exe_m = runs_measure exe in
  let both = runs_overlap pre exe in
  let sum f = Array.fold_left (fun a e -> a +. f e) 0. s.Schedule.entries in
  let hbm_device_volume = sum (fun e -> e.Schedule.popt.P.hbm_device_bytes) in
  let flops = Elk_model.Graph.total_flops s.Schedule.graph in
  {
    bd =
      {
        preload_only = Float.max 0. (pre_m -. both);
        execute_only = Float.max 0. (exe_m -. both -. stall);
        overlapped = both;
        interconnect = stall;
      };
    hbm_util = (if total > 0. then hbm_device_volume /. (chip.Arch.hbm_bandwidth *. total) else 0.);
    intercore_volume =
      sum (fun e ->
          (e.Schedule.plan.P.exchange_bytes_per_core +. e.Schedule.popt.P.dist_bytes_per_core)
          *. float_of_int e.Schedule.plan.P.cores_used);
    inject_volume = sum (fun e -> e.Schedule.popt.P.noc_inject_bytes);
    hbm_device_volume;
    achieved_flops = (if total > 0. then flops /. total else 0.);
  }

let evaluate ctx (s : Schedule.t) =
  let chip = P.ctx_chip ctx in
  let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
  let cores = float_of_int chip.Arch.cores in
  let stall_total = ref 0. in
  (* Interconnect contention is a per-core port phenomenon: during an
     execute's span each core's ports must serve its own exchange and
     distribution (already serialized inside [base_span]) plus its share
     of preload injection from overlapping preloads; the excess over the
     span stalls execution. *)
  let stall ~issued ~pre_start ~pre_end i ~start ~base_span =
    let entry = s.Schedule.entries.(i) in
    let port_busy_pc =
      (entry.Schedule.plan.P.exchange_bytes_per_core
      +. entry.Schedule.popt.P.dist_bytes_per_core)
      /. link_bw
    in
    let inject_overlap = ref 0. in
    for k = 0 to issued - 1 do
      let op = s.Schedule.order.(k) in
      if pre_end.(op) > start && pre_start.(op) < start +. base_span then begin
        let len = Float.max 1e-12 (pre_end.(op) -. pre_start.(op)) in
        let overlap =
          Float.min (start +. base_span) pre_end.(op) -. Float.max start pre_start.(op)
        in
        let frac = Float.max 0. overlap /. len in
        inject_overlap :=
          !inject_overlap +. (s.Schedule.entries.(op).Schedule.popt.P.noc_inject_bytes *. frac)
      end
    done;
    let inject_pc = !inject_overlap /. cores in
    let service = port_busy_pc +. (inject_pc /. link_bw) in
    let stall = Float.max 0. (service -. base_span) in
    stall_total := !stall_total +. stall;
    stall
  in
  let pre_start, pre_end, exe_start, exe_end = replay "evaluate" s ~stall in
  let n = Array.length exe_end in
  let total = exe_end.(n - 1) in
  let a =
    account chip s
      ~pre:(List.init n (fun o -> (pre_start.(o), pre_end.(o))))
      ~exe:(List.init n (fun o -> (exe_start.(o), exe_end.(o))))
      ~stall:!stall_total ~total
  in
  {
    total;
    bd = a.bd;
    hbm_util = a.hbm_util;
    noc_util =
      (if total > 0. then
         (a.intercore_volume +. a.inject_volume)
         /. (Arch.aggregate_intercore_bw chip *. total)
       else 0.);
    intercore_volume = a.intercore_volume;
    inject_volume = a.inject_volume;
    hbm_device_volume = a.hbm_device_volume;
    achieved_flops = a.achieved_flops;
    per_op =
      Array.init n (fun o ->
          {
            pre_start = pre_start.(o);
            pre_end = pre_end.(o);
            exe_start = exe_start.(o);
            exe_end = exe_end.(o);
          });
  }

(* [evaluate]'s replay with the stall fixed at zero.  Each execute then
   ends at [start +. base_span +. 0.], which is [start +. base_span]
   exactly; since stalls are nonnegative and [+.] and [Float.max] are
   monotone, every end here is <= its stalled counterpart bit for bit,
   so the result is a true lower bound of [(evaluate ctx s).total]. *)
let lower_bound _ctx (s : Schedule.t) =
  let no_stall ~issued:_ ~pre_start:_ ~pre_end:_ _ ~start:_ ~base_span:_ = 0. in
  let _, _, _, exe_end = replay "lower_bound" s ~stall:no_stall in
  exe_end.(Array.length exe_end - 1)

let pp_breakdown fmt b =
  Format.fprintf fmt "preload=%a exec=%a overlap=%a interconnect=%a" Elk_util.Units.pp_time
    b.preload_only Elk_util.Units.pp_time b.execute_only Elk_util.Units.pp_time b.overlapped
    Elk_util.Units.pp_time b.interconnect
