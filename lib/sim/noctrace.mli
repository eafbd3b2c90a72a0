(** Dynamic per-link interconnect recording for the simulator.

    When enabled ([Sim.run ~noc:true]), every link
    reservation the two fluid fabrics make is mirrored here as a
    booking — (traffic class, operator, link, bytes, busy interval) —
    and every transfer as a route record — (class, operator, src, dst,
    bytes, hops, queueing wait, envelope).  Per-link volumes, class
    breakdowns, busy intervals, hop histograms and utilization
    timelines are all derived on demand, so recording is a list cons
    per booking.  It is the one record the event loop keeps as it runs,
    because the reservation times exist nowhere else ({!Critpath} events
    and the {!Memtrace} record are derived from the per-operator phase
    times after the loop).  It is pure bookkeeping, never read back into
    any timing computation (the test suite checks simulated output is
    byte-identical with recording on and off). *)

(** The communication phase a booking belongs to.  [Preload] is the
    preload fabric's fluid share; [Distribute] and [Exchange] run in
    the execution share. *)
type cls = Preload | Distribute | Exchange

val cls_name : cls -> string

type booking = {
  b_cls : cls;
  b_op : int;
  b_link : Elk_noc.Noc.link;
  b_bytes : float;
  b_start : float;  (** reservation begins occupying the link. *)
  b_end : float;  (** link frees: bytes over the class's fluid share. *)
}

type transfer = {
  t_cls : cls;
  t_op : int;
  t_src : Elk_noc.Noc.node;
  t_dst : Elk_noc.Noc.node;
  t_bytes : float;
  t_hops : int;  (** links traversed = route length. *)
  t_wait : float;  (** queueing delay: booked start - requested start. *)
  t_start : float;
  t_end : float;  (** completion: latency + bottleneck service. *)
}

type t

val create : Elk_noc.Noc.t -> t
val noc : t -> Elk_noc.Noc.t
val num_bookings : t -> int
val num_transfers : t -> int

val record_booking :
  t ->
  cls:cls ->
  op:int ->
  link:Elk_noc.Noc.link ->
  bytes:float ->
  t_start:float ->
  t_end:float ->
  unit

val record_transfer :
  t ->
  cls:cls ->
  op:int ->
  src:Elk_noc.Noc.node ->
  dst:Elk_noc.Noc.node ->
  bytes:float ->
  hops:int ->
  wait:float ->
  t_start:float ->
  t_end:float ->
  unit

val bookings : t -> booking array
(** Emission order (simulation order). *)

val transfers : t -> transfer array
(** Emission order (simulation order). *)

(** Per-link aggregate over all bookings. *)
type link_stat = {
  ls_link : Elk_noc.Noc.link;
  ls_bandwidth : float;  (** raw link capacity, B/s. *)
  ls_volume : float;  (** total booked bytes. *)
  ls_preload : float;
  ls_distribute : float;
  ls_exchange : float;
  ls_busy : float;  (** summed reservation time across both classes. *)
  ls_bookings : int;
}

val link_stats : t -> link_stat list
(** Every touched link in the canonical {!Elk_noc.Noc.compare_link}
    order. *)

val busy_intervals :
  t -> link:Elk_noc.Noc.link -> (float * float) list * (float * float) list
(** One link's busy intervals, chronological: (preload class,
    distribute+exchange class).  Within a class, intervals never
    overlap — the fabric serializes bookings per link. *)

val class_bytes : t -> cls:cls -> float
(** Transfer bytes of one class, counted once per transfer. *)

val total_transfer_bytes : t -> float

val hop_histogram : t -> (int * int * float) list
(** [(hops, transfers, bytes)] rows sorted by hop count. *)

val max_wait : t -> op:int -> cls:cls -> float
(** Largest queueing wait among one operator's transfers of one class —
    the quantity {!Critpath} caps into an event's [port_wait]. *)
