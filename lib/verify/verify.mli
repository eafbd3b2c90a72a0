(** The static schedule/plan verifier: Elk's compiled artifacts proved
    safe before they are emitted.

    {!run} executes six families of static analyses over a compiled
    {!Elk.Schedule.t} (and optionally its device {!Elk.Program.t}):

    - {b memory safety} — replays the preload windows step by step and
      proves, at byte granularity, that every step's execute space plus
      the preload space of every live (issued, not yet executed) operator
      fits the per-core SRAM; checks preload-order sanity (no double or
      late preloads) and per-operator byte conservation (preload bytes +
      distribution bytes must cover the execute-state HBM footprint);
    - {b dependency and order soundness} — graph edges vs the execute
      stream, and mutual consistency of [order], [windows], and the
      device program;
    - {b numeric hygiene} — every duration, space, and estimate must be
      a finite non-negative float, and [est_total] must agree with a
      fresh stall-free timeline re-evaluation within tolerance;
    - {b bandwidth feasibility} — the claimed makespan must be above the
      HBM-device and controller-injection rooflines of the plan's total
      traffic; per-window pressure ratios are reported as info-level
      lints;
    - {b reuse races} (opt-in) — joins the allocator's address layout
      with buffer lifetimes and the happens-before DAG ({!Hb}, {!Races})
      to flag address-overlapping buffers whose accesses are unordered;
    - {b interconnect deadlock} (opt-in) — channel-dependency-graph
      cycle analysis of the distribution/exchange transfers over the
      {!Elk_noc} routes ({!Deadlock}).

    The opt-in families run under {!Rules.lint_selection} (the [elk
    lint] subcommand) or when named explicitly in a rule spec; the
    compile-time hook never runs them.

    Diagnostics cite rules from {!Rules.all}; severities follow the
    registry.  Every diagnostic increments [elk_verify_diags_total] and a
    per-rule counter in the {!Elk_obs.Metrics} registry.

    At link time this module installs {!check} as {!Elk.Compile}'s plan
    verifier, so every [compile] refuses to emit an [Error]-flagged plan
    (warnings are logged through {!Elk_obs.Logger}). *)

type report = {
  model : string;
  n_ops : int;
  rules_checked : string list;  (** enabled rule ids, registry order. *)
  diags : Diag.t list;  (** sorted by {!Diag.order}. *)
}

val errors : report -> int
val warnings : report -> int
val infos : report -> int

val run :
  ?rules:Rules.selection ->
  ?promote:Rules.promotion ->
  ?layout:Elk.Alloc.allocation list ->
  ?program:Elk.Program.t ->
  Elk_partition.Partition.ctx ->
  Elk.Schedule.t ->
  report
(** Run every enabled analysis.  Analyses that replay the windows are
    skipped (not crashed) when the schedule fails structural validation —
    the structural failure itself is reported as
    [dep.schedule-structure].  [program] defaults to regenerating one
    from the schedule; pass the artifact's own program to also check
    mutual consistency ([dep.program-consistency]).  [promote] raises
    the named rules/families to error severity at emission time.
    [layout] is the plan's recorded address layout for the race
    analysis; it defaults to recomputing one from the schedule (which is
    self-consistent by construction — real race findings come from
    serialized plans whose recorded layout went stale against an edited
    ordering). *)

val check :
  Elk_partition.Partition.ctx ->
  Elk.Schedule.t ->
  Elk.Program.t ->
  (unit, string) result
(** The {!Elk.Compile.verifier}: runs {!run} with every non-opt-in rule
    enabled, logs warnings via {!Elk_obs.Logger},
    and returns [Error] summarizing the error-severity diagnostics (if
    any). *)

val install : unit -> unit
(** [Elk.Compile.set_verifier (Some check)] — performed automatically at
    module initialization (the library is linked with [-linkall]). *)

val pp_report : Format.formatter -> report -> unit
(** One diagnostic per line ({!Diag.pp}), then a one-line summary. *)

val report_to_json : report -> string
(** Self-contained JSON object with counts and all diagnostics. *)
