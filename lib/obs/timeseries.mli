(** Windowed time series over simulated time.

    Where {!Metrics} aggregates one number per run, this module answers
    "over time": queue depth, throughput, rolling latency percentiles.
    A [t] holds named series; each series is cut into fixed-width
    windows laid edge to edge from [t = 0].  Recording appends a
    timestamped event; all aggregation happens at export time, entirely
    deterministically (simulated timestamps in, pure folds out).

    A series stores its events' times and values in two growable
    unboxed float arrays, in recording order, so recording allocates no
    object per event.  A run of records into one series, by the
    same name string, looks the name up once.  {!points} folds each
    window over its contiguous run of the time-ordered events (sorting
    them, stably, only when they were not recorded in time order), and
    {!check_tiling} reads no event at all: its cost is one step per
    window.  No series is ever cut into more than {!max_windows}
    windows.

    Window semantics are half-open: window [i] covers
    [[i*window, (i+1)*window)], so a sample landing exactly on an edge
    belongs to the window that edge opens. *)

type t

type kind = Counter | Gauge | Histogram

val kind_name : kind -> string

val max_windows : int
(** The most windows a series is cut into: 100,000.  The [makespan / 48]
    default of every view needs 48. *)

val check_window : window:float -> horizon:float -> (unit, string) result
(** [Error] naming [window] and [horizon] when windows of that width
    would need more than {!max_windows} to tile [[0, horizon]]. *)

val create : ?window:float -> ?horizon:float -> unit -> t
(** [window] is the window width in (simulated) seconds, default 1 ms.
    Raises [Invalid_argument] when it is not positive and finite, or,
    given the [horizon] the series will be exported to, when
    {!check_window} refuses the pair. *)

val window : t -> float

val add : t -> ?help:string -> string -> time:float -> float -> unit
(** Increment counter series [name] by the given amount at [time].
    Raises [Invalid_argument] on negative/non-finite timestamps, a
    non-finite value, or if [name] is already a different kind. *)

val set : t -> ?help:string -> string -> time:float -> float -> unit
(** Record a gauge change: the series holds the new value from [time]
    until the next change (piecewise constant). *)

val observe : t -> ?help:string -> string -> time:float -> float -> unit
(** Record one sample into histogram series [name]'s window at [time]. *)

val names : t -> string list
(** Registration order. *)

val kind_of : t -> string -> kind option
val help_of : t -> string -> string option
val events_recorded : t -> string -> int

type point = {
  t0 : float;  (** window start, inclusive *)
  t1 : float;  (** window end, exclusive *)
  count : int;  (** events recorded inside the window *)
  sum : float;
      (** counter: summed increments; histogram: summed samples; gauge:
          time integral of the value over the window *)
  mean : float;
      (** counter: rate ([sum]/width); histogram: sample mean; gauge:
          time-weighted mean *)
  vmin : float;  (** smallest value seen (gauges include the carried-in value) *)
  vmax : float;
  last : float;
      (** value at window end: gauges carry forward, counters report the
          cumulative total, histograms the last sample *)
  p50 : float;  (** exact in-window percentile; histograms only, else 0 *)
  p99 : float;
}

val points : t -> ?horizon:float -> string -> point list
(** The series' windows in time order.  Windows tile [[0, H]] where [H]
    is the later of [horizon] and the last sample; empty windows are
    materialized (zero counters, carried gauges) so the tiling has no
    gaps.  Empty list for unknown names.  Raises [Invalid_argument] if
    that takes more than {!max_windows} windows. *)

val n_windows : t -> ?horizon:float -> string -> int
(** The length of {!points}, without folding any window. *)

val check_tiling : t -> horizon:float -> string -> (unit, string) result
(** Verify the exported windows tile [[0, horizon]]: start at 0, sit
    edge to edge with uniform width, and reach the horizon — to a
    [1e-6] tolerance (relative to the horizon above one second).  The
    windows' edges depend on their count and width alone, so this walks
    the edges {!points} would compute, in O(windows), reading no event.
    More than {!max_windows} windows is an [Error]. *)

val to_json : t -> ?horizon:float -> unit -> string
(** [{"window":w,"series":{name:{"kind":…,"help":…,"points":[…]}}}] with
    per-kind point fields (counter: rate/total, gauge: mean/min/max/last,
    histogram: count/mean/p50/p99/max). *)

val series_json : t -> ?horizon:float -> string -> string

val chrome_counter_events : t -> ?horizon:float -> ?pid:int -> string -> string list
(** One Perfetto counter track per series: gauges emit their raw change
    points (crisp steps), counters the per-window rate, histograms the
    per-window p99. *)
