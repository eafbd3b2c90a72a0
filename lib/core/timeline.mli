(** Analytic forward timeline evaluation of a schedule.

    Replays a {!Schedule.t} under the device rules of §4.5 — executes are
    sequential; preloads are sequential in preload order; a preload gated
    to window [i] cannot start before the previous operator's execution
    ends; an operator's execution waits for its own preload — and returns
    the quantities the paper's evaluation reports: makespan, the
    four-way time breakdown of Fig 18(a), HBM / interconnect utilization
    (Fig 18(b,c)) and achieved FLOP/s (Fig 18(d)).

    The replay is written once.  {!evaluate} runs it with the
    interconnect-contention term and {!lower_bound} with that term fixed
    at zero; nothing else separates them.  Contention is modeled
    first-order: when the injection traffic of in-flight preloads plus
    the executing operator's inter-core exchange exceeds what the fabric
    can serve within the execution span, the excess service time
    stretches the span and is accounted to the [interconnect] bucket.
    The event-driven simulator ({!Elk_sim.Sim}) refines this with
    per-link queues, and derives its own Fig 18 numbers from its
    intervals with {!account}. *)

type op_times = {
  pre_start : float;
  pre_end : float;
  exe_start : float;
  exe_end : float;  (** includes the data-distribution phase and stalls. *)
}

type breakdown = {
  preload_only : float;  (** HBM loading with idle cores. *)
  execute_only : float;  (** cores busy, HBM idle. *)
  overlapped : float;  (** both active. *)
  interconnect : float;  (** stalls from interconnect contention. *)
}

type account = {
  bd : breakdown;
  hbm_util : float;
  intercore_volume : float;
  inject_volume : float;
  hbm_device_volume : float;
  achieved_flops : float;
}
(** The Fig 18 quantities every timeline model reports the same way,
    each as in {!result}.  Interconnect utilization is not among them:
    each model measures its own. *)

type result = {
  total : float;
  bd : breakdown;
  hbm_util : float;  (** mean HBM bandwidth utilization. *)
  noc_util : float;  (** mean interconnect utilization (all traffic). *)
  intercore_volume : float;  (** bytes exchanged core-to-core. *)
  inject_volume : float;  (** bytes injected by HBM controllers. *)
  hbm_device_volume : float;  (** bytes read from HBM devices. *)
  achieved_flops : float;  (** model FLOPs / total time. *)
  per_op : op_times array;
}

val union_measure : (float * float) list -> float
(** Length covered by a list of [(start, stop)] intervals.  Overlapping
    and touching intervals count once; empty ones ([stop <= start]) count
    nothing.  One sort by start and one merge into maximal runs, whose
    lengths are summed in order: O(n log n). *)

val intersection_measure : (float * float) list -> (float * float) list -> float
(** Length covered by both lists: the {!union_measure} of every pairwise
    overlap, to the bit, computed by merging the two lists' maximal runs
    once, O((n + m) log (n + m)), rather than by clipping every pair.
    Either list may overlap itself. *)

val account :
  Elk_arch.Arch.chip ->
  Schedule.t ->
  pre:(float * float) list ->
  exe:(float * float) list ->
  stall:float ->
  total:float ->
  account
(** The Fig 18 accounting of a replay of the schedule that ended at
    [total]: the breakdown from the [(start, end)] preload and execute
    intervals and the summed interconnect [stall] (preload-only and
    execute-only time outside their overlap, the stall taken out of
    execute-only), HBM utilization over [total], the three traffic
    volumes of the schedule's entries and achieved FLOP/s.  Each side's
    runs are sorted and merged once, and the union and intersection
    measures read off them.  {!evaluate} and {!Elk_sim.Sim.run} both
    report through it. *)

val evaluate : Elk_partition.Partition.ctx -> Schedule.t -> result
(** The replay with the interconnect-contention stall, O(n^2) in the
    operators.  Raises [Invalid_argument] if the schedule fails
    {!Schedule.validate}. *)

val lower_bound : Elk_partition.Partition.ctx -> Schedule.t -> float
(** {!evaluate}'s replay with the stall fixed at zero: the same float
    expressions, so it equals [(evaluate ctx s).total] whenever that
    plan's stall is zero, and because the stall is nonnegative and [+.]
    and [Float.max] are monotone it is never above it, bit for bit.
    {!Compile.candidates} cuts the order search with it and
    {!Compile.compile}'s fold skips the full evaluation of any survivor
    whose bound already exceeds the best total so far without ever
    changing the argmin; the verifier's [num.est-drift] compares a
    plan's estimate with it.  O(n) after the validate.  Raises
    [Invalid_argument] on an invalid schedule. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
