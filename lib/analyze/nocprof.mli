(** Interconnect observability: per-link congestion profiles behind
    [elk noc].

    Two synchronized views of a plan's interconnect behaviour.  The
    {e dynamic} view replays the simulator's {!Elk_sim.Noctrace}
    record — every link reservation the two fluid fabrics made — into
    per-link rows (volume, preload/distribute/exchange breakdown, busy
    time, utilization), {!Elk_obs.Timeseries} utilization gauges over
    simulated time, hop-count histograms and, on 2D meshes, an ASCII
    heatmap.  The {e static} view is a {!Elk_noc.Noc.Load} mirror of
    the schedule's communication phases, booked exactly the way the
    simulator executes them.  {!check} gates the two against each
    other link by link, and the trace's queueing waits against
    {!Elk_sim.Perfcore}'s per-op port attribution and the simulator's
    per-op distribute/exchange port waits.  {!analyze} indexes the
    record once ({!Elk_sim.Noctrace.index}) and {!check} reuses that
    index, so a report and its check cost time linear in the record
    apart from sorting, and allocate no object per booking. *)

type link_row = {
  l_link : Elk_noc.Noc.link;
  l_name : string;
  l_bandwidth : float;  (** raw capacity, B/s. *)
  l_volume : float;  (** dynamic booked bytes. *)
  l_static : float;  (** the static Load mirror's bytes. *)
  l_preload : float;
  l_distribute : float;
  l_exchange : float;
  l_busy : float;  (** summed reservation seconds, both classes. *)
  l_util : float;  (** busy / makespan. *)
  l_bookings : int;
}

type report = {
  model : string;
  total : float;  (** simulated makespan. *)
  topology : string;
  noc : Elk_noc.Noc.t;
  rows : link_row list;  (** canonical link order. *)
  hot : link_row list;  (** by descending busy time. *)
  busiest_dyn : (Elk_noc.Noc.link * float) option;
  busiest_static : (Elk_noc.Noc.link * float) option;
  pre_bytes : float;  (** recorded class bytes, once per transfer. *)
  dist_bytes : float;
  ex_bytes : float;
  expect_pre : float;  (** schedule-side expectations of the same sums. *)
  expect_dist : float;
  expect_ex : float;
  hops : (int * int * float) list;  (** (hops, transfers, bytes) rows. *)
  mean_hops : float;  (** byte-weighted mean route length. *)
  trace : Elk_sim.Noctrace.t;
  index : Elk_sim.Noctrace.index;  (** [trace]'s index, built once by {!analyze}. *)
  series : Elk_obs.Timeseries.t;
      (** a utilization gauge per hottest link (the five busiest), then
          the busy-link count. *)
  port_attrib : (float * float) array;
      (** per op: (port wait recomputed from the trace, Perfcore's
          [a_port]). *)
  per_op : Elk_sim.Sim.op_trace array;  (** the run's per-op phase times. *)
}

val static_load : Elk_noc.Noc.t -> Elk.Schedule.t -> Elk_noc.Noc.Load.loads
(** The schedule's communication booked into a {!Elk_noc.Noc.Load}
    exactly the way the simulator executes it: preload fan-out from
    each core's controller, the distribution ring, the exchange ring. *)

val analyze :
  ?window:float ->
  Elk.Schedule.t ->
  Elk_sim.Sim.result ->
  report
(** Build the report from a simulator run recorded with [~noc:true].
    [window] is the Timeseries window width (default:
    {!Elk_obs.Timeseries.default_window} of the makespan).  Raises [Invalid_argument] if the run carries no
    interconnect record, or if [window] would cut the makespan into more
    than {!Elk_obs.Timeseries.max_windows} windows.  The report reads
    the record through one {!Elk_sim.Noctrace.index}: the per-link rows
    from its stats, the utilization gauges from its busy unions. *)

val check : report -> (unit, string) result
(** The invariants [elk noc] enforces on every run: dynamic per-link
    volumes agree with the static mirror (and the busiest links
    coincide), recorded class totals match the schedule's, recomputed
    queueing waits match Perfcore's per-op port attribution and, per
    phase, the simulator's [dist_wait]/[ex_wait], per-class busy
    intervals never overlap on a link ({!Elk_sim.Noctrace.overlap}),
    and the series tile [[0, total]] without gaps. *)

val tables : ?top:int -> report -> Elk_util.Table.t list
(** Summary, top-[top] hottest links with class breakdown, and the
    route-length histogram (default [top] 10). *)

val heatmap : report -> string list option
(** ASCII per-core heatmap of outgoing-link utilization on 2D meshes;
    [None] on other topologies. *)

val print : ?top:int -> report -> unit
(** {!tables}, the mesh heatmap when there is one, and a busiest-link
    utilization sparkline, to stdout. *)

val to_json : ?top:int -> report -> string
(** JSON snapshot.  After [model], the snapshot core written by
    {!Tracediff.core_fields} (hottest links as busy-second segments) so
    [elk trace diff] can gate [BENCH_noc.json]; the rest is the full
    interconnect payload (links, class totals, hop histogram, series).
    Floats are rounded to 6 significant digits
    ({!Elk_obs.Jsonx.number6}). *)

val noc_pid : int
(** Perfetto process id of the interconnect counter tracks (10). *)

val chrome_counter_events : report -> string list
(** Per-link utilization gauges and the busy-link count as Perfetto
    counter tracks under {!noc_pid}, for embedding beside the device
    timeline. *)
