(** Run-to-run comparison of view snapshots.

    Consumes two [--json-out] documents of [elk critpath]
    ({!Elk_sim.Critpath.to_json}), [elk mem], [elk noc] or [elk serve]
    and answers "what got slower, and on
    which resource": makespan delta, per-resource critical-seconds
    deltas, and per-segment deltas keyed by (operator name, kind,
    resource) — individual critical segments are not stable run to run,
    so segments aggregate by that key before diffing.  Keys present in
    only one snapshot diff against zero.

    Regressions are gated on one absolute yardstick: an entry (or the
    makespan itself) regresses when it grows by more than
    [threshold × old makespan].  [elk trace diff] maps {!regressed} to
    its exit code, so CI can compare a fresh snapshot against the
    committed [BENCH_critpath.json] baseline. *)

(** {1 The snapshot core}

    Every snapshot [elk trace diff] reads carries the same four fields: ["total"], ["dominant"], ["resource_seconds"] (resource
    → seconds) and ["segments"] (an array of [{name, kind, resource,
    dur}]).  {!Elk_sim.Critpath.to_json} writes its own layout of them
    (its segments also carry [op] and [start], and an ["events"] field
    sits between [total] and [dominant]); the memory, interconnect and
    SLO snapshots write them with {!core_fields}. *)

type segment = { name : string; kind : string; resource : string; dur : float }

val core_fields :
  total:float ->
  dominant:string ->
  resources:(string * float) list ->
  segments:segment list ->
  string list
(** The four core fields, rendered ({!Elk_obs.Jsonx.field}) in that
    order, numbers rounded by {!Elk_obs.Jsonx.number6}: splice them into
    the snapshot's {!Elk_obs.Jsonx.obj}.  Lists are written as given;
    {!diff} sums the segments that share (name, kind, resource). *)

(** {1 Diffing} *)

type entry = { key : string; v_old : float; v_new : float }

val delta : entry -> float
(** [v_new - v_old]; positive = slower. *)

type t = {
  total_old : float;
  total_new : float;
  dominant_old : string;
  dominant_new : string;
  resources : entry list;  (** per-resource critical seconds, old order. *)
  segments : entry list;
      (** per (op name, kind, resource) critical seconds; old-snapshot
          order with new-only keys appended. *)
}

val diff : old_json:string -> new_json:string -> (t, string) result
(** Parse and join two snapshot documents; the error says which side is
    unreadable and why. *)

val regressed_entries : threshold:float -> t -> entry list
(** Resource and segment entries that grew past [threshold × old total]. *)

val regressed : threshold:float -> t -> bool
(** True when the makespan or any entry regressed past the threshold.
    Identical snapshots never regress (all deltas are zero). *)

val tables : ?top:int -> t -> Elk_util.Table.t list
(** Text rendering: makespan/dominant header with per-resource deltas,
    and the [top] (default 12) largest segment deltas by magnitude. *)

val print : ?top:int -> t -> unit

val to_json : threshold:float -> t -> string
(** The diff as one JSON document: totals, dominants, the threshold, the
    regression verdict, the named regressed entries, and the full
    per-resource / per-segment delta lists. *)
