(** Per-core and per-operator resource attribution of a simulation run
    (the diagnostic substrate behind Fig 18(a)'s four-way breakdown).

    {!Sim.run} derives one {!t} per run after its event loop, from the
    per-op phase times and each core's ring and tile times the loop
    records: every core's share of the makespan is decomposed into five
    buckets (compute, inter-core exchange, preload stall, port
    contention, idle), and every operator's critical-path span is
    attributed to the resource that bound it.  Bandwidth over time is
    not kept here; {!Sim.series} builds it on demand from the same
    record.

    The per-core buckets tile the makespan exactly: for every core the
    bucket sum equals the simulated total.  {!check} verifies this, and
    the test suite runs it on every topology so that attribution leaks
    surface whenever the simulator changes. *)

type buckets = {
  mutable compute : float;  (** running the operator's tile. *)
  mutable exchange : float;
      (** moving data core-to-core (distribution + exchange phases),
          excluding queuing. *)
  mutable preload_wait : float;
      (** execution gated on the operator's own preload (§4.5 rule 3). *)
  mutable port : float;  (** queued behind a busy link or SRAM port. *)
  mutable idle : float;
      (** unused by the operator's plan, or waiting on a slower peer. *)
}

type op_attrib = {
  mutable a_hbm : float;
      (** preload-stall share caused by the HBM device roofline. *)
  mutable a_interconnect : float;
      (** preload delivery beyond the HBM floor, plus distribution and
          exchange communication on the critical path. *)
  mutable a_compute : float;  (** tile-compute span (slowest core). *)
  mutable a_port : float;  (** critical-path queuing delay. *)
}

type t = {
  per_core : buckets array;  (** indexed by core id. *)
  per_op : op_attrib array;  (** indexed by operator id. *)
}

val create : cores:int -> ops:int -> t
(** Fresh zeroed accumulators for a run over [ops] operators. *)

val bucket_sum : buckets -> float
(** Sum of all five buckets — the core's span of the makespan. *)

val busy : buckets -> float
(** Time the core did useful or unavoidable work: compute + exchange +
    port (queuing holds the port busy; only [idle] and [preload_wait]
    are slack). *)

val attrib_sum : op_attrib -> float
(** The operator's critical-path span (preload stall + all three
    execution phases). *)

val imbalance : t -> float
(** Load imbalance: max over cores of {!busy} divided by the mean
    (1.0 = perfectly balanced; 0 when nothing ran). *)

val check : t -> total:float -> (unit, string) result
(** Verify that every core's {!bucket_sum} equals [total] within 1e-6
    relative tolerance and that the per-operator attributions sum to
    [total] as well.  [Error] names the first offending core. *)
