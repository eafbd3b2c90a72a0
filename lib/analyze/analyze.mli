(** Bottleneck analysis over a simulation's resource attribution.

    Consumes a {!Elk_sim.Sim.result} (whose [perf] field carries the
    {!Elk_sim.Perfcore} attribution derived from the run) and the
    schedule it ran, and answers the
    question the paper's whole evaluation is built around: {e which core,
    which operator, and which contended resource bounds this plan} — the
    Fig 18(a) breakdown made actionable.  Produces:

    - top-k critical cores by busy time, with their five-bucket split;
    - a dominant-resource classification per operator (HBM-bound /
      interconnect-bound / compute-bound / port-bound);
    - load imbalance (max/mean core busy time);
    - what-if headroom: the latency with each resource made infinite,
      computed analytically by deleting that resource's critical-path
      attribution;
    - HBM / NoC bandwidth-over-time summaries (peak and mean rates).

    Reports export as text tables ({!tables}), JSON ({!to_json}), and
    per-core counter tracks mergeable into the Chrome/Perfetto timeline
    ({!chrome_counter_events}). *)

type resource = Hbm | Interconnect | Compute | Port

val resource_name : resource -> string
(** ["hbm"], ["interconnect"], ["compute"], ["port"]. *)

val all_resources : resource list

val classify : Elk_sim.Perfcore.op_attrib -> resource
(** Dominant resource of one operator: the largest attribution bucket.
    An operator with no attributed time at all is compute-bound (it ran
    for free; nothing else bound it). *)

type op_class = {
  op_id : int;
  op_name : string;
  dominant : resource;
  span : float;  (** the operator's critical-path seconds. *)
  shares : (resource * float) list;  (** absolute seconds per resource. *)
}

type core_row = { core : int; buckets : Elk_sim.Perfcore.buckets }

type report = {
  total : float;  (** simulated makespan. *)
  imbalance : float;  (** max/mean core busy time. *)
  top_cores : core_row list;  (** top-k cores by busy time, descending. *)
  resource_totals : (resource * float) list;
      (** critical-path seconds per resource, summed over operators —
          the four entries sum to [total]. *)
  headroom : (resource * float) list;
      (** estimated latency with each resource made infinite. *)
  mix : (resource * int) list;  (** operator count per dominant resource. *)
  ops : op_class array;  (** every operator, id order. *)
  hbm_peak : float;  (** peak binned HBM bandwidth, B/s. *)
  hbm_mean : float;
  noc_peak : float;  (** peak binned interconnect bandwidth, B/s. *)
  noc_mean : float;
  series : Elk_sim.Sim.series;
      (** the run's series ({!Elk_sim.Sim.series}), for the counter tracks. *)
}

val analyze : ?top:int -> Elk.Schedule.t -> Elk_sim.Sim.result -> report
(** Build a report for a run of the schedule; [top] (default 8) bounds
    [top_cores].  Every field is finite even on degenerate inputs
    (single-operator models, zero-length buckets): divisions are
    guarded, so no [nan] reaches {!to_json}. *)

val slack_headroom :
  report -> Elk_sim.Critpath.summary -> (resource * float * float) list
(** [(res, attribution headroom, slack-aware headroom)] per resource.
    The attribution estimate deletes all of [res]'s attributed seconds;
    the slack-aware estimate deletes only the seconds the causal
    critical path spends on [res] — zero-slack time, the only time whose
    removal is guaranteed to move the makespan.  For compute and port
    the chain seconds are a subset of the attributed seconds, so the
    slack-aware estimate is the more conservative of the two. *)

val headroom_check :
  report -> Elk_sim.Critpath.summary -> (unit, string) result
(** Cross-check the what-if headroom against the causal critical path of
    the same run: totals agree to 1e-6, chain compute/port seconds never
    exceed their attributed totals (both layers share the Perfcore
    classification convention), and every headroom estimate is finite
    and within [0, total]. *)

val tables : ?top_ops:int -> report -> Elk_util.Table.t list
(** Render as text tables: bottleneck summary (per-resource time, share,
    what-if headroom), top cores with their bucket split, operator mix,
    and the [top_ops] (default 10) largest operators with their dominant
    resource. *)

val print : ?top_ops:int -> report -> unit
(** {!tables} to stdout. *)

val to_json : report -> string
(** The whole report as one JSON document ({!Elk_obs.Jsonx} escaping). *)

val chrome_counter_events : ?bins:int -> report -> string list
(** Perfetto counter tracks from the report's series: HBM bandwidth
    (GB/s), interconnect bandwidth (GB/s), and per-core busy fraction
    for each of [top_cores], sampled at [bins] (default 60) points.
    Merge with {!Elk_sim.Trace.chrome_events} and
    {!Elk_obs.Span.chrome_events} into one trace file. *)
