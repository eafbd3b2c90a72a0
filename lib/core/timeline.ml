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

(* Measure of the union of a set of closed intervals. *)
let union_measure intervals =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

(* Measure of the intersection of two interval unions (both lists may
   overlap internally; we clip each pair). *)
let intersection_measure xs ys =
  let pieces =
    List.concat_map
      (fun (a, b) ->
        List.filter_map
          (fun (c, d) ->
            let lo = Float.max a c and hi = Float.min b d in
            if hi > lo then Some (lo, hi) else None)
          ys)
      xs
  in
  union_measure pieces

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
  let pre_m = union_measure pre and exe_m = union_measure exe in
  let both = intersection_measure pre exe in
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
