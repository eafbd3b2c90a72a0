type family = Memory | Dependency | Numeric | Bandwidth | Race | Deadlock

let family_name = function
  | Memory -> "mem"
  | Dependency -> "dep"
  | Numeric -> "num"
  | Bandwidth -> "bw"
  | Race -> "race"
  | Deadlock -> "deadlock"

type rule = {
  id : string;
  family : family;
  default_severity : Diag.severity;
  opt_in : bool;
  summary : string;
}

let all =
  [
    {
      id = "mem.capacity";
      family = Memory;
      default_severity = Diag.Error;
      opt_in = false;
      summary =
        "execute space + live preload space exceeds per-core SRAM at some step \
         although a fitting preload-option assignment exists";
    };
    {
      id = "mem.overcommit";
      family = Memory;
      default_severity = Diag.Warning;
      opt_in = false;
      summary =
        "SRAM overflows at some step even with minimal preload options (tolerated \
         fallback: the simulator charges the contention)";
    };
    {
      id = "mem.double-preload";
      family = Memory;
      default_severity = Diag.Error;
      opt_in = false;
      summary = "an operator appears twice (or out of range) in the preload order";
    };
    {
      id = "mem.use-before-preload";
      family = Memory;
      default_severity = Diag.Error;
      opt_in = false;
      summary = "an operator's preload window falls after its execution step";
    };
    {
      id = "mem.underfetch";
      family = Memory;
      default_severity = Diag.Error;
      opt_in = false;
      summary =
        "preload bytes + distribution bytes do not cover the operator's \
         execute-state HBM footprint (bytes would be used before they arrive)";
    };
    {
      id = "mem.overfetch";
      family = Memory;
      default_severity = Diag.Warning;
      opt_in = false;
      summary =
        "preload bytes + distribution bytes exceed the operator's execute-state \
         HBM footprint (wasted transfer)";
    };
    {
      id = "dep.edge-order";
      family = Dependency;
      default_severity = Diag.Error;
      opt_in = false;
      summary = "a graph dependency edge is violated by the execution order";
    };
    {
      id = "dep.schedule-structure";
      family = Dependency;
      default_severity = Diag.Error;
      opt_in = false;
      summary = "Schedule.validate rejects the schedule (structural invariant)";
    };
    {
      id = "dep.program-stream";
      family = Dependency;
      default_severity = Diag.Error;
      opt_in = false;
      summary = "Program.validate rejects the instruction stream";
    };
    {
      id = "dep.program-consistency";
      family = Dependency;
      default_severity = Diag.Error;
      opt_in = false;
      summary =
        "the device program disagrees with the program regenerated from the \
         schedule's order and windows";
    };
    {
      id = "num.finite";
      family = Numeric;
      default_severity = Diag.Error;
      opt_in = false;
      summary =
        "a duration, space, or estimate is NaN, infinite, or negative \
         (preload_len, dist_time, exec_time, spaces, est_total)";
    };
    {
      id = "num.est-drift";
      family = Numeric;
      default_severity = Diag.Warning;
      opt_in = false;
      summary =
        "est_total drifts from a fresh stall-free Timeline re-evaluation by more \
         than the tolerance";
    };
    {
      id = "bw.hbm-roofline";
      family = Bandwidth;
      default_severity = Diag.Warning;
      opt_in = false;
      summary =
        "total preload bytes exceed the HBM roofline of the claimed makespan \
         (est_total promises more than the devices can stream)";
    };
    {
      id = "bw.inject-roofline";
      family = Bandwidth;
      default_severity = Diag.Warning;
      opt_in = false;
      summary =
        "total injected preload bytes exceed the controllers' injection capacity \
         over the claimed makespan";
    };
    {
      id = "bw.window-roofline";
      family = Bandwidth;
      default_severity = Diag.Info;
      opt_in = false;
      summary =
        "a window's aggregate preload bytes far exceed the HBM or injection \
         roofline of its covering execution span (pressure absorbed by \
         contention stretch)";
    };
    (* The race/deadlock families are the lint layer: whole-plan
       soundness analyses over the happens-before DAG, the address
       layout, and the NoC routes.  Opt-in (excluded from the default
       verify selection and from the compile-time hook): on compiler
       output they prove the absence of hazards
       rather than find them — the findings come from mutated,
       hand-written, or future fused plans. *)
    {
      id = "race.war";
      family = Race;
      default_severity = Diag.Error;
      opt_in = true;
      summary =
        "address-overlapping buffers where a write can land inside the other \
         buffer's live range: no happens-before path orders the reusing write \
         after the prior buffer's last read";
    };
    {
      id = "race.waw";
      family = Race;
      default_severity = Diag.Error;
      opt_in = true;
      summary =
        "address-overlapping buffers whose writes are mutually unordered in \
         the happens-before DAG (final contents depend on delivery timing)";
    };
    {
      id = "deadlock.cycle";
      family = Deadlock;
      default_severity = Diag.Error;
      opt_in = true;
      summary =
        "the channel-dependency graph of a distribution/exchange phase has a \
         cycle: each link on it can be held by a transfer waiting for the next";
    };
    {
      id = "deadlock.self-loop";
      family = Deadlock;
      default_severity = Diag.Error;
      opt_in = true;
      summary = "a transfer's route acquires the same interconnect link twice";
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) all

type selection = {
  include_ : string list option;
  exclude : string list;
  with_opt_in : bool;
      (* whether an empty include list also enables opt-in rules — false
         for `elk verify` and the compile-time hook, true for `elk lint` *)
}

let default_selection = { include_ = None; exclude = []; with_opt_in = false }
let lint_selection = { include_ = None; exclude = []; with_opt_in = true }
let with_opt_in sel = { sel with with_opt_in = true }

let matches token id =
  token = id
  ||
  match String.index_opt id '.' with
  | Some dot -> String.sub id 0 dot = token
  | None -> false

let known_token token =
  List.exists (fun r -> matches token r.id) all

let selection_of_string spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let bad =
    List.filter
      (fun t ->
        let t = if String.length t > 0 && t.[0] = '-' then String.sub t 1 (String.length t - 1) else t in
        not (known_token t))
      tokens
  in
  if bad <> [] then
    Error
      (Printf.sprintf
         "unknown rule(s) %s (valid: %s, or a family prefix \
          mem/dep/num/bw/race/deadlock)"
         (String.concat ", " bad)
         (String.concat ", " (List.map (fun r -> r.id) all)))
  else
    let inc, exc =
      List.partition_map
        (fun t ->
          if String.length t > 0 && t.[0] = '-' then
            Right (String.sub t 1 (String.length t - 1))
          else Left t)
        tokens
    in
    Ok
      {
        include_ = (if inc = [] then None else Some inc);
        exclude = exc;
        with_opt_in = false;
      }

let enabled sel id =
  (match sel.include_ with
  | None ->
      sel.with_opt_in
      || not (match find id with Some r -> r.opt_in | None -> false)
  | Some toks -> List.exists (fun t -> matches t id) toks)
  && not (List.exists (fun t -> matches t id) sel.exclude)

let enabled_ids sel =
  List.filter_map (fun r -> if enabled sel r.id then Some r.id else None) all

(* ---- severity promotion (--error=<family|rule>,...) ---- *)

type promotion = string list

let no_promotion = []

let promotion_of_string spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match List.filter (fun t -> not (known_token t)) tokens with
  | [] -> Ok tokens
  | bad ->
      Error
        (Printf.sprintf
           "unknown rule(s) %s in --error (valid: rule ids or a family prefix \
            mem/dep/num/bw/race/deadlock)"
           (String.concat ", " bad))

let promoted promo id = List.exists (fun t -> matches t id) promo
