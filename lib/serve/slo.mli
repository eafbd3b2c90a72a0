(** SLO report over a served workload.

    Distills a {!Frontend.result} into operator-facing numbers — TTFT /
    inter-token-latency / queue-wait percentiles, useful tokens/second,
    goodput, SLO attainment — plus the windowed time series behind them.
    All values derive from simulated time: the JSON snapshot is
    byte-identical run to run for a given seed, and doubles as an
    [elk trace diff] baseline (percentiles are encoded as segments in
    the shape {!Elk_analyze.Tracediff} aggregates). *)

type pct = { p50 : float; p90 : float; p99 : float; mean : float; max : float }

val pct_of : float list -> pct
(** Exact percentiles ({!Elk_util.Stats.percentile}); zeros on []. *)

type report = {
  workload : string;
  seed : int;
  n_requests : int;
  n_batches : int;
  makespan : float;
  ttft : pct;
  itl : pct;
  queue_wait : pct;
  tokens_per_second : float;  (** useful output tokens / makespan *)
  useful_tokens : int;
  padded_tokens : int;  (** padded batch slots computed and discarded *)
  goodput : float;  (** useful / (useful + padded) *)
  slo_ttft : float option;
  slo_itl : float option;
  attainment : float option;
      (** fraction of requests meeting every set SLO; [None] when no SLO
          target was given *)
  distinct_shapes : int;
  recompilations : int;
  series : Elk_obs.Timeseries.t;
}

val attains :
  ?slo_ttft:float -> ?slo_itl:float -> Frontend.req_trace -> bool
(** A request attains its SLOs when its TTFT and its mean inter-token
    latency are both within target (unset targets always pass). *)

val of_result :
  ?slo_ttft:float ->
  ?slo_itl:float ->
  ?window:float ->
  ?mem:bool ->
  ?noc:bool ->
  workload:string ->
  seed:int ->
  Frontend.result ->
  report
(** Build the report.  [mem] and [noc] are passed through to
    {!Frontend.timeseries} (SRAM high-water and busiest-link gauges,
    both default off).
    Validates that every time series tiles [[0, makespan]] edge to edge
    ({!Elk_obs.Timeseries.check_all}) and raises [Invalid_argument]
    if any window is missing, or if [window] would cut the makespan into
    more than {!Elk_obs.Timeseries.max_windows} windows. *)

val to_json : report -> string
(** Snapshot with the core {!Elk_analyze.Tracediff.core_fields} writes
    ([total] = makespan, latency percentiles as [segments]) plus the
    full SLO payload and the exported time series, numbers rounded by
    {!Elk_obs.Jsonx.number6}.  Deterministic for a given seed. *)

val print : report -> unit
(** Human-readable report: headline rates, latency table, SLO
    attainment, and a queue-depth-over-time sparkline.  Simulated values
    only — safe to snapshot in cram tests. *)
