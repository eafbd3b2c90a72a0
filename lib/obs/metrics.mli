(** Process-global metrics registry: named counters, gauges, and
    log-scale histograms, with Prometheus-text and JSON exporters.

    Recording calls ({!incr}, {!set}, {!observe}) are no-ops
    while {!Control.is_enabled} is false — the hot paths of the compiler
    and simulator call them unconditionally and rely on that fast path.
    Queries and exporters always work on whatever has been recorded.
    Metrics are created implicitly on first use; a name keeps the kind of
    its first use (recording under the same name with a different kind is
    ignored).  All registry operations are serialized by a mutex. *)

val incr : ?by:float -> ?help:string -> string -> unit
(** Add [by] (default 1) to a counter. *)

val set : ?help:string -> string -> float -> unit
(** Set a gauge. *)

val observe : ?help:string -> string -> float -> unit
(** Record a sample into a histogram with logarithmic buckets
    (powers of two from 1 microsecond up — suited to seconds-valued
    timings, but any positive scale works; samples below the first bound
    land in the first bucket). *)

(** {1 Queries} *)

val counter_value : string -> float option
val gauge_value : string -> float option

val percentile : string -> float -> float option
(** [percentile name p] estimates the [p]-th percentile (0..100) of a
    histogram by geometric interpolation within the covering bucket,
    clamped to the observed min/max.  [None] if the histogram does not
    exist; [Some 0.] if it exists but holds no samples (e.g. right after
    {!reset_histogram}). *)

val histogram_stats : string -> (int * float * float * float) option
(** [(count, sum, min, max)] of a histogram.  An existing but empty
    histogram reports [(0, 0., 0., 0.)] — never the infinite sentinels. *)

val counters : unit -> (string * float) list
(** All counters in registration order — deterministic for a
    deterministic program, which the CLI's profile table relies on. *)

(** {1 Exporters} *)

val to_prometheus : unit -> string
(** Prometheus text exposition format (# HELP/# TYPE, cumulative
    [_bucket{le=...}] series for histograms).  Metric names are sanitized
    to the Prometheus charset. *)

val to_json : unit -> string
(** One JSON object with ["counters"], ["gauges"], and ["histograms"]
    (count/sum/min/max/p50/p90/p99 per histogram). *)

val reset_histogram : string -> unit
(** Zero a histogram's buckets and summary fields in place, keeping the
    metric registered — reuse across runs (e.g. one serving run's
    step-latency percentiles must not include the previous run's
    samples).  A no-op on unknown names and non-histogram metrics. *)

val reset : unit -> unit
(** Drop every registered metric. *)
