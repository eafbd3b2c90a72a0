(** The registry of verification rules and rule selection.

    Every diagnostic produced by {!Verify.run} cites a rule id from this
    registry.  Ids are [family.name] ([mem.capacity], [dep.edge-order],
    ...); the six families mirror the analysis families of the verifier:

    - [mem] — memory safety: per-step SRAM liveness, byte conservation;
    - [dep] — dependency and order soundness: graph edges vs execute
      order, schedule/program mutual consistency;
    - [num] — numeric hygiene: finiteness, estimate drift;
    - [bw]  — bandwidth feasibility: HBM and injection rooflines;
    - [race] — SRAM buffer-reuse races: address-overlapping buffers not
      ordered by the happens-before DAG ({!Hb}, {!Races});
    - [deadlock] — channel-dependency cycles in the distribution and
      exchange transfers over the NoC routes ({!Deadlock}).

    The [race]/[deadlock] families are {e opt-in}: excluded from the
    default selection (so [elk verify] and the compile-time hook keep
    their historical rule set) and enabled by {!lint_selection} or by
    naming them in a selection spec. *)

type family = Memory | Dependency | Numeric | Bandwidth | Race | Deadlock

val family_name : family -> string
(** ["mem"], ["dep"], ["num"], ["bw"], ["race"], ["deadlock"] — also the
    id prefix. *)

type rule = {
  id : string;
  family : family;
  default_severity : Diag.severity;
  opt_in : bool;
      (** excluded from {!default_selection}; selected by
          {!lint_selection} or by naming the rule/family explicitly. *)
  summary : string;  (** one line, shown by [elk verify --rules help]. *)
}

val all : rule list
(** Every rule, in family order — the row order of the documentation
    table. *)

val find : string -> rule option

(** {1 Selection}

    A selection is parsed from a comma-separated spec.  Each token is a
    rule id or a family prefix; a leading ['-'] suppresses instead of
    selecting.  If any non-suppressing token is present, only the named
    rules run (minus suppressions); otherwise all rules run minus
    suppressions.  Examples: ["mem,dep"], ["-bw.window-roofline"],
    ["mem,-mem.overfetch"], ["race,deadlock"]. *)

type selection

val default_selection : selection
(** Every non-opt-in rule enabled. *)

val lint_selection : selection
(** Every rule enabled, opt-in families included — what [elk lint]
    runs. *)

val with_opt_in : selection -> selection
(** Make a parsed selection's implicit "everything" also cover opt-in
    rules (explicitly named rules are always covered). *)

val selection_of_string : string -> (selection, string) result
(** Parse a spec; unknown tokens are reported as an error listing the
    valid ids. *)

val enabled : selection -> string -> bool
(** Whether a rule id is enabled under the selection. *)

val enabled_ids : selection -> string list
(** The enabled rule ids, in {!all} order. *)

(** {1 Severity promotion}

    [--error=race,deadlock] promotes whole families (or single rules) to
    error severity, turning "reported" into "build-failing".  Promotion
    applies at emission time, so error counting and exit codes follow. *)

type promotion

val no_promotion : promotion

val promotion_of_string : string -> (promotion, string) result
(** Comma-separated rule ids or family prefixes; unknown tokens are an
    error. *)

val promoted : promotion -> string -> bool
(** Whether diagnostics of a rule id are promoted to {!Diag.Error}. *)
