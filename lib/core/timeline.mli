(** Analytic forward timeline evaluation of a schedule.

    Replays a {!Schedule.t} under the device rules of §4.5 — executes are
    sequential; preloads are sequential in preload order; a preload gated
    to window [i] cannot start before the previous operator's execution
    ends; an operator's execution waits for its own preload — and returns
    the quantities the paper's evaluation reports: makespan, the
    four-way time breakdown of Fig 18(a), HBM / interconnect utilization
    (Fig 18(b,c)) and achieved FLOP/s (Fig 18(d)).

    Interconnect contention is modeled first-order: when the injection
    traffic of in-flight preloads plus the executing operator's inter-core
    exchange exceeds what the fabric can serve within the execution span,
    the excess service time stretches the span and is accounted to the
    [interconnect] bucket.  The event-driven simulator ({!Elk_sim.Sim})
    refines this with per-link queues. *)

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
    nothing.  The Fig 18(a) breakdown measures preload and execute time
    with it, here and in {!Elk_sim.Sim}. *)

val intersection_measure : (float * float) list -> (float * float) list -> float
(** Length covered by both lists: the {!union_measure} of every pairwise
    overlap.  Either list may overlap itself. *)

val evaluate : Elk_partition.Partition.ctx -> Schedule.t -> result
(** Raises [Invalid_argument] if the schedule fails {!Schedule.validate}. *)

val lower_bound : Elk_partition.Partition.ctx -> Schedule.t -> float
(** A stall-free makespan: {!evaluate}'s forward pass with the
    interconnect-contention term dropped.  Because stalls are nonnegative
    and gating is monotone in them, this is a {e true lower bound} of
    [(evaluate ctx s).total] — {!Compile.compile}'s fold over the
    order search's survivors may skip the full quadratic evaluation of
    any candidate whose bound already exceeds the best total so far
    without ever changing the argmin.  O(n) after the validate.  Raises
    [Invalid_argument] on an invalid schedule. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
