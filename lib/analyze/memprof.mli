(** Memory observability: SRAM residency timelines and the
    buffer-lifetime ledger behind [elk mem].

    Two synchronized views of a plan's SRAM behaviour.  The {e dynamic}
    view replays the simulator's {!Elk_sim.Memtrace} record into
    {!Elk_obs.Timeseries} gauges — per-core occupancy over simulated
    time, the chip aggregate, high-water marks against
    {!Elk_arch.Arch.usable_sram_per_core} — and integrates {e wasted
    residency}: byte-seconds a preload buffer sits delivered but unused,
    and byte-seconds an execute footprint lingers through the
    exchange/reduction tail after its last tile-compute use.  The
    {e static} view is the {!Elk.Residency} ledger (the verifier's
    liveness replay), derived from the schedule alone.  {!check} gates
    the two against each other and against capacity. *)

type waste_row = {
  w_name : string;  (** operator name rows are aggregated under. *)
  w_ops : int;
  w_bytes : float;  (** largest per-core preload footprint in the group. *)
  w_resident_s : float;  (** summed delivery-to-first-use residency. *)
  w_pre : float;  (** byte-seconds of pre-use waste. *)
  w_post : float;  (** byte-seconds of post-use (exchange-tail) waste. *)
}

type report = {
  model : string;
  total : float;  (** simulated makespan. *)
  capacity : float;  (** usable SRAM bytes per core. *)
  cores : int;
  dyn_high_water : float;  (** peak per-core bytes, dynamic. *)
  static_high_water : float;  (** peak per-core bytes, static ledger. *)
  static_high_water_step : int;
  chip_peak : float;  (** peak aggregate bytes across all cores. *)
  pre_waste : float;
  post_waste : float;
  waste_rows : waste_row list;  (** by descending total waste. *)
  ledger : Elk.Residency.t;
  mem : Elk_sim.Memtrace.t;
  series : Elk_obs.Timeseries.t;
}

val analyze :
  ?window:float ->
  Elk_partition.Partition.ctx ->
  Elk.Schedule.t ->
  Elk_sim.Sim.result ->
  report
(** Build the report from a simulator run recorded with [~mem:true].
    [window] is the Timeseries window width (default:
    {!Elk_obs.Timeseries.default_window} of the makespan).
    Raises [Invalid_argument] if the run carries no memory record, or
    if [window] would cut the makespan into more than
    {!Elk_obs.Timeseries.max_windows} windows. *)

val overcommit_bytes : report -> float
(** Bytes by which the dynamic per-core peak exceeds usable SRAM, 0 when
    it fits.  Mirrors the verifier's [mem.overcommit] rule: exceeding
    capacity is a warning (some plans deliberately overcommit and charge
    the contention downstream), not a cross-view violation. *)

val check : report -> (unit, string) result
(** The invariants [elk mem] enforces on every run: the static ledger's
    high water bounds the dynamic one (verifier tolerance), the chip
    aggregate is consistent with the per-core peak, waste is
    non-negative, and the series tile [[0, total]] without gaps.
    Capacity exceedance is a warning, not an error — see
    {!overcommit_bytes}. *)

val tables : ?top:int -> report -> Elk_util.Table.t list
(** Summary, top-[top] wasted-residency rows, and the HBM traffic
    ledger (default [top] 10). *)

val print : ?top:int -> report -> unit
(** {!tables} plus an occupancy sparkline, to stdout. *)

val to_json : ?top:int -> report -> string
(** JSON snapshot.  After [model], the snapshot core written by
    {!Tracediff.core_fields} (waste segments in capacity-seconds) so
    [elk trace diff] can gate [BENCH_mem.json]; the rest is the full
    memory payload (high waters, buffers, HBM ledger, series).  Floats
    are rounded to 6 significant digits ({!Elk_obs.Jsonx.number6}). *)

val mem_pid : int
(** Perfetto process id of the memory counter tracks (8). *)

val chrome_counter_events : report -> string list
(** Occupancy gauges plus a flat capacity line as Perfetto counter
    tracks under {!mem_pid}, for embedding beside the device timeline. *)
