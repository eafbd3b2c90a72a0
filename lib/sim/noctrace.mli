(** Dynamic per-link interconnect recording for the simulator.

    When enabled ([Sim.run ~noc:true]), every link reservation the two
    fluid fabrics make is recorded as a booking — (traffic class,
    operator, link, bytes, busy interval) — and every transfer as a route
    record — (class, operator, src, dst, bytes, hops, queueing wait,
    envelope).  Records are rows of chunked unboxed arrays carrying the
    dense {!Elk_noc.Noc.link_id}; a transfer booked along a route-table
    path ({!record_path}) is one row, its bookings derived when read, so
    recording allocates only when a chunk fills.  Per-link volumes,
    class breakdowns, hop histograms and utilization timelines are
    derived on demand, and the per-link stats, busy intervals, busy
    unions, overlaps and per-op waits a report queries come from one
    {!index} walk.  It is the one record
    the event loop keeps as it runs, because the reservation times exist
    nowhere else ({!Critpath} events, the {!Memtrace} record and the
    {!Perfcore} attribution are derived from the per-operator phase
    times after the loop).  It is
    pure bookkeeping, never read back into any timing computation (the
    test suite checks simulated output is byte-identical with recording
    on and off). *)

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

type t

val create : Elk_noc.Noc.t -> t
val noc : t -> Elk_noc.Noc.t
val num_bookings : t -> int
val num_transfers : t -> int

val record_booking :
  t ->
  cls:cls ->
  op:int ->
  link:int ->
  bytes:float ->
  t_start:float ->
  t_end:float ->
  unit
(** Record one link reservation; [link] is the {!Elk_noc.Noc.link_id}.
    Raises [Invalid_argument] for an id the chip does not have. *)

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
(** Record one transfer's route envelope.  Raises [Invalid_argument] on
    negative [hops]. *)

val record_path :
  t ->
  cls:cls ->
  op:int ->
  Elk_noc.Noc.path ->
  eff:float array ->
  bytes:float ->
  wait:float ->
  t_start:float ->
  t_end:float ->
  unit
(** Record a transfer along a route-table path of this chip, and its
    bookings: one per link of the path, in order and just before the
    transfer, each from [t_start] to [t_start +. bytes /. eff.(id)]
    ([eff] is the traffic class's effective bandwidth by link id).
    [hops] is the path's length.  The bookings are derived from [eff]
    when read, so it must not change afterwards.  Raises
    [Invalid_argument] if [eff] is not one entry per link id. *)

val bookings : t -> booking array
(** Emission order (simulation order). *)

(** Per-link aggregate over all bookings; {!stats} gives them. *)
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

val class_bytes : t -> cls:cls -> float
(** Transfer bytes of one class, counted once per transfer. *)

val total_transfer_bytes : t -> float

val hop_histogram : t -> (int * int * float) list
(** [(hops, transfers, bytes)] rows sorted by hop count. *)

(** {2 The per-report index} *)

type index
(** The record sorted once for a report: bookings grouped by link and
    class group (preload; distribute and exchange), each group by start;
    the per-link stats; and the largest queueing wait per (operator,
    class).  Build it after the recording is complete; later records are
    not in it. *)

val index : t -> index
(** One walk over the bookings, which also sums the per-link stats, and
    one over the transfers (plus a sort of any link's class group whose
    bookings were not recorded in start order).  The walk loads each
    booking into a cursor with unboxed floats: it allocates nothing per
    booking. *)

val stats : index -> link_stat list
(** Every touched link of the indexed record in the canonical
    {!Elk_noc.Noc.compare_link} order, its sums taken in recording
    order. *)

val busy_intervals : index -> link:int -> (float * float) list * (float * float) list
(** One link's busy intervals, by {!Elk_noc.Noc.link_id}, chronological
    (ties in recording order): (preload class, distribute+exchange
    class).  Within a class, intervals never overlap — the fabric
    serializes bookings per link.  Raises [Invalid_argument] for an id
    the chip does not have. *)

(** Every link's busy union, in flat arrays: link [id]'s disjoint
    intervals, chronological, are [(u_starts.(k), u_ends.(k))] for [k]
    from [u_first.(id)] to [u_first.(id + 1) - 1]. *)
type unions = {
  u_first : int array;  (** by link id, plus the total count last. *)
  u_starts : float array;  (** by position; entries past the total are unused. *)
  u_ends : float array;
}

val unions : index -> unions
(** Each link's two class groups merged by start, the preload class
    first on equal starts, and swept once: an interval that starts no
    later than the current union interval's end extends it. *)

val overlap : index -> slack:float -> (int * [ `Preload | `Execution ]) option
(** The first link id and class group, links in id order and the
    preload group first, where an interval starts more than [slack]
    before its predecessor in the group ends; [None] when no group has
    one. *)

val max_wait : index -> op:int -> cls:cls -> float
(** Largest queueing wait among one operator's transfers of one class
    (0 when there are none) — the quantity {!Critpath} caps into an
    event's [port_wait]. *)
