(** Event-driven ICCA chip simulator (paper §5, "Simulation framework").

    Interprets a compiled {!Elk.Program} under the device rules of §4.5 on
    a flow-level model of one chip: per-core compute pipelines with
    deterministic per-core skew, per-link reservations (injection/ejection
    ports on the all-to-all fabric; directed edges and boundary HBM entry
    strips on the mesh), and a channel/bank-state HBM device
    ({!Elk_hbm.Hbm}) with tensors placed sequentially, exactly as the
    paper's emulator places them.

    Each preload reads the operator's HBM bytes (advancing the HBM device
    state) and delivers every core's preload-space bytes from its
    controller over the interconnect; each execute runs the
    data-distribution phase (ring transfers from sharing-group peers),
    the per-core tile computation, and the exchange/reduction phase.
    Preloads queue behind earlier preloads and behind every earlier
    [execute] in program order; an [execute] waits for the previous
    execute and for its own preload — rules (1)-(3) of §4.5.

    Interconnect contention is emergent: preload deliveries reserve the
    same links that distribution and exchange transfers use, so overlap
    shows up as queuing delay, which the simulator accounts into the
    [interconnect] breakdown bucket (Fig 18a, Fig 20).

    Who sends to whom is {!Elk_noc.Noc}'s: each preload reads the run's
    {!Elk_noc.Noc.preload_routes} (the all-to-all fan-out books the
    same controller and core ports directly), and the two ring phases
    read {!Elk_noc.Noc.distribution_ring} and
    {!Elk_noc.Noc.exchange_ring}, built once per run on the run's own
    [Noc.t].  A run costs O(ops x cores x hops) and allocates nothing
    per transfer: each transfer books its links in per-link float arrays
    and writes its completion and queueing into the phase's arrays.  The
    per-core skew units come from a process-wide table ({!skew_unit}). *)

type op_trace = {
  pre_start : float;
  hbm_end : float;  (** the HBM read completes ([pre_start] if no bytes). *)
  pre_end : float;
  pre_wait : float;  (** delivery stall beyond the ideal fan-out. *)
  exe_start : float;
  dist_end : float;  (** end of the data-distribution phase. *)
  dist_wait : float;
      (** port wait of the distribution phase: the longest any core's
          transfer queued, capped at the phase length.  [dist_wait +.
          ex_wait] is the op's {!Perfcore} [a_port]. *)
  compute_end : float;
  exe_end : float;  (** after the exchange/reduction phase. *)
  ex_wait : float;  (** port wait of the exchange phase, likewise. *)
  device_bytes : float;
  inject_bytes : float;
  dist_bytes : float;  (** total distribution bytes (all cores). *)
  exchange_bytes : float;  (** total exchange bytes (all cores). *)
  core_tile : float array;
      (** each participating core's skewed tile time, by core id (length
          [cores_used]); [compute_end] is [dist_end] plus the largest. *)
  core_dist_done : float array;
      (** when each participating core's distribution transfer ended;
          empty when the op distributes nothing. *)
  core_dist_wait : float array;  (** how long each of them queued. *)
  core_ex_done : float array;  (** likewise for the exchange phase. *)
  core_ex_wait : float array;
}

type result = {
  total : float;
  bd : Elk.Timeline.breakdown;
      (** [bd], [hbm_util], the three volumes and [achieved_flops] are
          {!Elk.Timeline.account} of the simulated preload and execute
          intervals ([pre_start]-[pre_end], [exe_start]-[exe_end]) and the
          summed interconnect stall: the same accounting as the analytic
          timeline's, over the simulator's times. *)
  hbm_util : float;
  noc_util : float;
      (** hop-weighted bytes the simulated links carried over the
          fabric's link capacity times [total]: the simulator's own
          measure, where the analytic timeline divides traffic volume by
          aggregate bandwidth. *)
  noc_util_split : float * float;
      (** (inter-core, preload) components of [noc_util] — the stacked
          bars of Fig 18(c). *)
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
  per_op : op_trace array;
  hbm_requests : int;  (** HBM device requests issued. *)
  perf : Perfcore.t;
      (** per-core bucket attribution and per-operator per-resource
          attribution, derived from [per_op] after the event loop. *)
  events : Critpath.event array option;
      (** causal event DAG, derived from [per_op] only when {!run} is
          called with [~events:true]; [None] otherwise.
          Feed to {!Critpath.extract} for the critical path. *)
  mem : Memtrace.t option;
      (** SRAM-residency record, derived from [per_op] only when {!run}
          is called with [~mem:true]; [None] otherwise.  Feed to
          {!Elk_analyze.Memprof} for occupancy timelines and wasted
          residency. *)
  noc : Noctrace.t option;
      (** per-link interconnect record, only when {!run} is called with
          [~noc:true]; [None] otherwise.  Feed to
          {!Elk_analyze.Nocprof} for per-link utilization timelines and
          congestion profiles. *)
}

val run :
  ?skew:float ->
  ?events:bool ->
  ?mem:bool ->
  ?noc:bool ->
  Elk_partition.Partition.ctx ->
  Elk.Schedule.t ->
  result
(** Simulate one chip executing a schedule.  [skew] (default 0.02) is the
    relative deterministic per-core compute-time perturbation.  [events]
    asks for the causal event DAG, [mem] for the SRAM-residency record
    and [noc] for the per-link interconnect record (all three default to
    off, and a field is filled only when it was asked for).  The event
    loop records timing ([per_op]) and, with [noc], the link bookings;
    [perf], the DAG and the residency record are built after it, from
    [per_op] and the schedule.  Nothing recorded is read back, so the
    simulated timeline is identical either way.  Raises [Invalid_argument]
    if the schedule fails validation, or if an operator uses more cores
    than the context's chip has (before any route is looked up). *)

val skew_unit : core:int -> op:int -> float
(** The deterministic unit in [[0, 1]] behind core [core]'s compute skew
    on operator [op]: [Hashtbl.hash (core, op, "skew") land 0xFFFF] over
    65535.  {!run} scales that core's tile time by [1 - skew + 2 skew
    unit].  Read from a process-wide table that fills on first use; all
    domains share it, and it needs no reset, since the unit is a pure
    function of its two ints.  Raises [Invalid_argument] on a negative
    argument. *)

type series = {
  hbm : Elk_util.Series.t;  (** HBM device bytes over each read. *)
  noc : Elk_util.Series.t;
      (** interconnect bytes: preload injection, distribution and
          exchange, each over its phase. *)
  intercore : Elk_util.Series.t;  (** distribution and exchange bytes only. *)
  core_busy : Elk_util.Series.t array;
      (** per core, busy time (communication and tile compute) over time. *)
}
(** Bandwidth and busy time over time (Figs 7-8, [elk analyze]): the
    phases of positive length, each volume spread over its interval.
    [hbm_util]/[noc_util] are the time-averaged scalars. *)

val series : Elk.Schedule.t -> result -> series
(** Build a run's series from its [per_op], in the program order of the
    schedule that was simulated.  The event loop keeps none of them, so a
    caller that reads no series pays nothing for them. *)

val compare_with_timeline :
  Elk_partition.Partition.ctx -> Elk.Schedule.t -> float
(** Relative difference between the simulated and the analytic makespan,
    [|sim - analytic| / sim] — the validation the paper performs between
    its simulator and emulator. *)
