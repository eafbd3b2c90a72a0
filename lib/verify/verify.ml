module P = Elk_partition.Partition
module A = Elk_arch.Arch
module S = Elk.Schedule
module G = Elk_model.Graph

type report = {
  model : string;
  n_ops : int;
  rules_checked : string list;
  diags : Diag.t list;
}

let count sev r =
  List.length (List.filter (fun d -> d.Diag.severity = sev) r.diags)

let errors = count Diag.Error
let warnings = count Diag.Warning
let infos = count Diag.Info

(* Tolerances.  Byte conservation is exact by construction, so one byte of
   absolute slack absorbs float noise; the estimate-drift and roofline
   tolerances were calibrated against the checked-in example models
   (measured worst drift 1.9%, rooflines comfortably met). *)
let capacity_eps = 1e-6
let bytes_eps = 1.0
let drift_tol = 0.10
let roofline_tol = 0.05
let window_slack = 8.0
let max_window_diags = 12

let severity_of id =
  match Rules.find id with
  | Some r -> r.Rules.default_severity
  | None -> invalid_arg ("Verify: unregistered rule " ^ id)

let metric_of_rule id =
  "elk_verify_diag_"
  ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) id
  ^ "_total"

(* One analysis = one closure per rule family; [emit] appends a diagnostic
   under the rule's registered severity (raised to Error when the rule is
   promoted, so error counting and exit codes follow). *)
let run ?(rules = Rules.default_selection) ?(promote = Rules.no_promotion)
    ?layout ?program ctx (s : S.t) =
  let n = S.num_ops s in
  let graph = s.S.graph in
  let chip = P.ctx_chip ctx in
  let capacity = A.usable_sram_per_core chip in
  let acc = ref [] in
  let on id = Rules.enabled rules id in
  let emit id ?loc ?payload msg =
    let severity =
      if Rules.promoted promote id then Diag.Error else severity_of id
    in
    acc := Diag.make ~rule:id ~severity ?loc ?payload msg :: !acc
  in

  (* --- Structural gate: replay-based analyses need a well-formed
     schedule; a malformed one is itself the finding. --- *)
  let struct_ok =
    match S.validate s with
    | Ok () -> true
    | Error msg ->
        if on "dep.schedule-structure" then
          emit "dep.schedule-structure" ("schedule rejected: " ^ msg);
        false
  in
  (* [Schedule.validate] also rejects late preloads and bad numerics, which
     this verifier wants to replay and report precisely itself — so the
     window-replay analyses run under a weaker gate: consistent lengths,
     well-formed windows, and [order] a permutation. *)
  let basic_ok =
    G.length graph = n
    && Array.length s.S.order = n
    && Array.length s.S.entries = n
    && Array.length s.S.windows = n + 1
    && Array.for_all (fun w -> w >= 0) s.S.windows
    && Array.fold_left ( + ) 0 s.S.windows = n
    &&
    let seen = Array.make (max n 1) false in
    Array.for_all
      (fun id ->
        id >= 0 && id < n
        &&
        if seen.(id) then false
        else begin
          seen.(id) <- true;
          true
        end)
      s.S.order
  in

  (* --- dep.edge-order: graph edges vs the execute stream. --- *)
  if on "dep.edge-order" then begin
    Array.iter
      (fun node ->
        List.iter
          (fun d ->
            if d >= node.G.id then
              emit "dep.edge-order" ~loc:(Diag.at_op node.G.id)
                ~payload:[ ("dep", Diag.Int d) ]
                (Printf.sprintf "depends on op %d, which does not precede it" d))
          node.G.deps)
      (G.nodes graph);
    match program with
    | None -> ()
    | Some (p : Elk.Program.t) ->
        let executed = Array.make (max n 1) false in
        Array.iter
          (function
            | Elk.Program.Preload_async _ -> ()
            | Elk.Program.Execute op ->
                if op >= 0 && op < n then begin
                  List.iter
                    (fun d ->
                      if d >= 0 && d < n && not executed.(d) then
                        emit "dep.edge-order" ~loc:(Diag.at_op op)
                          ~payload:[ ("dep", Diag.Int d) ]
                          (Printf.sprintf "executed before its dependency op %d" d))
                    (G.get graph op).G.deps;
                  executed.(op) <- true
                end)
          p.Elk.Program.instrs
  end;

  (* --- mem.double-preload: the order must mention each op exactly once. --- *)
  if on "mem.double-preload" then begin
    let seen = Array.make (max n 1) false in
    Array.iteri
      (fun k id ->
        if id < 0 || id >= n then
          emit "mem.double-preload"
            ~payload:[ ("position", Diag.Int k) ]
            (Printf.sprintf "preload position %d names unknown op %d" k id)
        else if seen.(id) then
          emit "mem.double-preload" ~loc:(Diag.at_op id)
            ~payload:[ ("position", Diag.Int k) ]
            (Printf.sprintf "preloaded more than once (again at position %d)" k)
        else seen.(id) <- true)
      s.S.order
  end;

  (* --- num.finite: every duration, space, and volume of the artifact. --- *)
  if on "num.finite" then begin
    let bad v = not (Float.is_finite v) || v < 0. in
    let check_op id fields =
      match List.find_opt (fun (_, v) -> bad v) fields with
      | None -> ()
      | Some (name, v) ->
          emit "num.finite" ~loc:(Diag.at_op id)
            ~payload:[ ("field", Diag.Str name); ("value", Diag.Num v) ]
            (Printf.sprintf "%s is %h (must be finite and >= 0)" name v)
    in
    Array.iter
      (fun (e : S.op_entry) ->
        check_op e.S.node_id
          [
            ("preload_len", e.S.preload_len);
            ("dist_time", e.S.dist_time);
            ("plan.exec_space", e.S.plan.P.exec_space);
            ("plan.exec_time", e.S.plan.P.exec_time);
            ("plan.hbm_needed_per_core", e.S.plan.P.hbm_needed_per_core);
            ("popt.preload_space", e.S.popt.P.preload_space);
            ("popt.dist_bytes_per_core", e.S.popt.P.dist_bytes_per_core);
            ("popt.dist_time", e.S.popt.P.dist_time);
            ("popt.hbm_device_bytes", e.S.popt.P.hbm_device_bytes);
            ("popt.noc_inject_bytes", e.S.popt.P.noc_inject_bytes);
          ])
      s.S.entries;
    if (not (Float.is_finite s.S.est_total)) || s.S.est_total < 0. then
      emit "num.finite"
        ~payload:[ ("field", Diag.Str "est_total"); ("value", Diag.Num s.S.est_total) ]
        (Printf.sprintf "est_total is %h (must be finite and >= 0)" s.S.est_total)
  end;

  (* --- mem.underfetch / mem.overfetch: byte conservation per operator.
     Preload-state bytes plus distribution-phase bytes must cover the
     execute-state HBM footprint exactly. --- *)
  if on "mem.underfetch" || on "mem.overfetch" then
    Array.iter
      (fun (e : S.op_entry) ->
        let supplied = e.S.popt.P.preload_space +. e.S.popt.P.dist_bytes_per_core in
        let needed = e.S.plan.P.hbm_needed_per_core in
        let payload =
          [ ("supplied_bytes", Diag.Num supplied); ("needed_bytes", Diag.Num needed) ]
        in
        if supplied < needed -. bytes_eps && on "mem.underfetch" then
          emit "mem.underfetch" ~loc:(Diag.at_op e.S.node_id) ~payload
            (Printf.sprintf
               "preload + distribution supply %.0f B/core but execution needs \
                %.0f B/core"
               supplied needed)
        else if supplied > needed +. bytes_eps && on "mem.overfetch" then
          emit "mem.overfetch" ~loc:(Diag.at_op e.S.node_id) ~payload
            (Printf.sprintf
               "preload + distribution move %.0f B/core for a %.0f B/core \
                footprint (wasted transfer)"
               supplied needed))
      s.S.entries;

  (* --- bandwidth rooflines: the claimed makespan must be achievable by
     the HBM devices and the injection fabric for the plan's total
     traffic.  Skipped on the [est_total = 0] sentinel. --- *)
  if s.S.est_total > 0. then begin
    let total_hbm =
      Array.fold_left (fun a (e : S.op_entry) -> a +. e.S.popt.P.hbm_device_bytes) 0.
        s.S.entries
    and total_inj =
      Array.fold_left (fun a (e : S.op_entry) -> a +. e.S.popt.P.noc_inject_bytes) 0.
        s.S.entries
    in
    let hbm_floor = total_hbm /. chip.A.hbm_bandwidth in
    let inj_floor = total_inj /. P.inject_rate chip in
    if on "bw.hbm-roofline" && hbm_floor > s.S.est_total *. (1. +. roofline_tol) then
      emit "bw.hbm-roofline"
        ~payload:
          [
            ("hbm_bytes", Diag.Num total_hbm);
            ("hbm_floor_s", Diag.Num hbm_floor);
            ("est_total_s", Diag.Num s.S.est_total);
          ]
        (Printf.sprintf
           "claimed makespan %.3e s is below the HBM streaming floor %.3e s \
            for %.0f total bytes"
           s.S.est_total hbm_floor total_hbm);
    if on "bw.inject-roofline" && inj_floor > s.S.est_total *. (1. +. roofline_tol) then
      emit "bw.inject-roofline"
        ~payload:
          [
            ("inject_bytes", Diag.Num total_inj);
            ("inject_floor_s", Diag.Num inj_floor);
            ("est_total_s", Diag.Num s.S.est_total);
          ]
        (Printf.sprintf
           "claimed makespan %.3e s is below the injection floor %.3e s for \
            %.0f injected bytes"
           s.S.est_total inj_floor total_inj)
  end;

  (* --- dep.program-stream: the instruction stream on its own. --- *)
  (match program with
  | None -> ()
  | Some p ->
      if on "dep.program-stream" then begin
        match Elk.Program.validate p ~n with
        | Ok () -> ()
        | Error msg -> emit "dep.program-stream" ("program rejected: " ^ msg)
      end);

  (* Replay-based analyses below require the weaker structural gate. *)
  if basic_ok && n > 0 then begin
    let pos = S.position_of s in
    let step = S.preload_step s in

    (* --- mem.use-before-preload: an operator's window must close before
       its execution step (window [id] at the latest). --- *)
    if on "mem.use-before-preload" then
      Array.iteri
        (fun id p ->
          if step.(p) > id then
            emit "mem.use-before-preload" ~loc:(Diag.at_op_step ~op:id ~step:step.(p))
              ~payload:[ ("window", Diag.Int step.(p)); ("position", Diag.Int p) ]
              (Printf.sprintf "preloaded in window %d, after its execution" step.(p)))
        pos;

    (* --- mem.capacity / mem.overcommit: per-step SRAM liveness replay.
       At step i the executing operator holds its execute space while
       every issued-but-not-yet-executed operator holds its preload
       space.  The replay itself lives in [Elk.Residency] (shared with
       the memory-observability ledger, so the two views cannot drift);
       this rule keeps the severity split: an overflow is an [Error]
       when some preload-option assignment would have fitted (the
       artifact is wrong), and a [Warning] when even minimal options
       overflow (the documented smallest-plan fallback, charged as
       contention downstream). --- *)
    if on "mem.capacity" || on "mem.overcommit" then begin
      let issued = Elk.Residency.issued_counts s in
      let usage_at = Elk.Residency.step_usage s in
      let min_space = Hashtbl.create 16 in
      let minimal_space id =
        match Hashtbl.find_opt min_space id with
        | Some v -> v
        | None ->
            let e = s.S.entries.(id) in
            let v =
              match P.preload_options ctx (G.get graph id).G.op e.S.plan with
              | [] -> e.S.popt.P.preload_space
              | o :: _ -> o.P.preload_space (* sorted by increasing space *)
            in
            Hashtbl.add min_space id v;
            v
      in
      for i = 0 to n - 1 do
        let usage = ref usage_at.(i) in
        let floor = ref s.S.entries.(i).S.plan.P.exec_space in
        for k = 0 to issued.(i) - 1 do
          let w = s.S.order.(k) in
          if w > i then floor := !floor +. minimal_space w
        done;
        if !usage > capacity +. capacity_eps then begin
          let payload =
            [
              ("usage_bytes", Diag.Num !usage);
              ("capacity_bytes", Diag.Num capacity);
              ("overflow_bytes", Diag.Num (!usage -. capacity));
            ]
          in
          if !floor <= capacity +. capacity_eps then begin
            if on "mem.capacity" then
              emit "mem.capacity" ~loc:(Diag.at_op_step ~op:i ~step:i) ~payload
                (Printf.sprintf
                   "%.0f B/core live (%.0f B over per-core SRAM) although a \
                    fitting preload-option assignment exists"
                   !usage (!usage -. capacity))
          end
          else if on "mem.overcommit" then
            emit "mem.overcommit" ~loc:(Diag.at_op_step ~op:i ~step:i) ~payload
              (Printf.sprintf
                 "%.0f B/core live (%.0f B over per-core SRAM) even with minimal \
                  preload options; contention is charged downstream"
                 !usage (!usage -. capacity))
        end
      done
    end;

    (* --- dep.program-consistency: the artifact's program vs the one the
       schedule lays out. --- *)
    (match program with
    | None -> ()
    | Some p ->
        if on "dep.program-consistency" then begin
          let expected = Elk.Program.of_schedule s in
          let ei = expected.Elk.Program.instrs and pi = p.Elk.Program.instrs in
          if Array.length ei <> Array.length pi then
            emit "dep.program-consistency"
              ~payload:
                [
                  ("expected_len", Diag.Int (Array.length ei));
                  ("got_len", Diag.Int (Array.length pi));
                ]
              (Printf.sprintf
                 "program has %d instructions but the schedule lays out %d"
                 (Array.length pi) (Array.length ei))
          else
            let mismatch = ref None in
            Array.iteri
              (fun k instr -> if !mismatch = None && pi.(k) <> instr then mismatch := Some k)
              ei;
            match !mismatch with
            | None -> ()
            | Some k ->
                let show = function
                  | Elk.Program.Preload_async op -> Printf.sprintf "preload_async(%d)" op
                  | Elk.Program.Execute op -> Printf.sprintf "execute(%d)" op
                in
                emit "dep.program-consistency"
                  ~payload:
                    [
                      ("instr", Diag.Int k);
                      ("expected", Diag.Str (show ei.(k)));
                      ("got", Diag.Str (show pi.(k)));
                    ]
                  (Printf.sprintf
                     "instr %d: program says %s but the schedule lays out %s" k
                     (show pi.(k)) (show ei.(k)))
        end);

    (* --- num.est-drift: the claimed makespan vs a fresh stall-free
       timeline re-evaluation (interconnect contention excluded: the
       scheduler's estimate predates the contention model).  Schedules
       carrying the [est_total = 0] sentinel (baselines, deserialized
       plans) are exempt; the timeline replays only fully valid
       schedules. --- *)
    if on "num.est-drift" && struct_ok && s.S.est_total > 0. then begin
      let tl = Elk.Timeline.evaluate ctx s in
      let stall_free = tl.Elk.Timeline.total -. tl.Elk.Timeline.bd.Elk.Timeline.interconnect in
      let drift =
        Float.abs (s.S.est_total -. stall_free) /. Float.max 1e-12 stall_free
      in
      if drift > drift_tol then
        emit "num.est-drift"
          ~payload:
            [
              ("est_total", Diag.Num s.S.est_total);
              ("reevaluated", Diag.Num stall_free);
              ("drift", Diag.Num drift);
            ]
          (Printf.sprintf
             "est_total %.3e s drifts %.1f%% from the re-evaluated stall-free \
              makespan %.3e s"
             s.S.est_total (100. *. drift) stall_free)
    end;

    (* --- bw.window-roofline (info): windows whose aggregate preload
       traffic far exceeds what the covering execution span can stream —
       pressure the timeline absorbs as contention stretch.  HBM-bound
       decode graphs exceed 1x routinely, hence the wide slack and info
       severity. --- *)
    if on "bw.window-roofline" then begin
      let offenders = ref [] in
      let k = ref s.S.windows.(0) in
      for i = 0 to n - 1 do
        let hbm = ref 0. and inj = ref 0. in
        for _ = 1 to s.S.windows.(i + 1) do
          let w = s.S.order.(!k) in
          hbm := !hbm +. s.S.entries.(w).S.popt.P.hbm_device_bytes;
          inj := !inj +. s.S.entries.(w).S.popt.P.noc_inject_bytes;
          incr k
        done;
        let span = s.S.entries.(i).S.plan.P.exec_time in
        if span > 0. && s.S.windows.(i + 1) > 0 then begin
          let ratio =
            Float.max
              (!hbm /. chip.A.hbm_bandwidth /. span)
              (!inj /. P.inject_rate chip /. span)
          in
          if ratio > window_slack then offenders := (ratio, i, !hbm) :: !offenders
        end
      done;
      let offenders =
        List.sort (fun (a, _, _) (b, _, _) -> compare b a) !offenders
      in
      List.iteri
        (fun rank (ratio, i, hbm) ->
          if rank < max_window_diags then
            emit "bw.window-roofline" ~loc:(Diag.at_step i)
              ~payload:[ ("ratio", Diag.Num ratio); ("window_hbm_bytes", Diag.Num hbm) ]
              (Printf.sprintf
                 "window %d preloads %.1fx more than its covering execution span \
                  can stream"
                 (i + 1) ratio))
        offenders;
      let extra = List.length offenders - max_window_diags in
      if extra > 0 then
        emit "bw.window-roofline"
          ~payload:[ ("suppressed", Diag.Int extra) ]
          (Printf.sprintf "%d more windows exceed the %.0fx roofline slack" extra
             window_slack)
    end;

    (* --- race.* / deadlock.*: the opt-in lint layer.  Both analyses
       interpret the device program, so they require a stream that the
       device would accept — invalid streams are already the
       dep.program-stream finding. --- *)
    let lint_wanted =
      on "race.war" || on "race.waw" || on "deadlock.cycle"
      || on "deadlock.self-loop"
    in
    if lint_wanted && Elk.Program.validate (Elk.Program.of_schedule s) ~n = Ok ()
    then begin
      let emit_lint id loc payload msg = emit id ~loc ~payload msg in
      if on "race.war" || on "race.waw" then begin
        let hb = Hb.of_schedule s in
        (* A recomputed layout is self-consistent with the schedule it
           came from; race findings need the plan's *recorded* layout
           (e.g. from a serialized plan whose ordering was edited). *)
        let layout =
          match layout with
          | Some l -> l
          | None -> Elk.Alloc.layout_of_schedule s
        in
        Races.check ~emit:emit_lint ~on ~hb ~layout s
      end;
      if on "deadlock.cycle" || on "deadlock.self-loop" then
        Deadlock.check ~emit:emit_lint ~on (Elk_noc.Noc.create chip) s
    end
  end;

  let diags = List.sort Diag.order !acc in
  List.iter
    (fun d ->
      Elk_obs.Metrics.incr "elk_verify_diags_total"
        ~help:"Diagnostics produced by the static plan verifier";
      Elk_obs.Metrics.incr (metric_of_rule d.Diag.rule)
        ~help:"Diagnostics produced by one verifier rule")
    diags;
  { model = G.name graph; n_ops = n; rules_checked = Rules.enabled_ids rules; diags }

let check ctx sched prog =
  let r = run ~program:prog ctx sched in
  List.iter
    (fun d ->
      if d.Diag.severity = Diag.Warning then
        Elk_obs.Logger.warn ~src:"verify"
          ~kvs:[ ("rule", d.Diag.rule); ("model", r.model) ]
          d.Diag.message)
    r.diags;
  if errors r = 0 then Ok ()
  else
    let firsts =
      List.filter (fun d -> d.Diag.severity = Diag.Error) r.diags
      |> List.filteri (fun i _ -> i < 3)
      |> List.map (fun d -> Format.asprintf "%a" Diag.pp d)
    in
    Error
      (Printf.sprintf "%d error diagnostic(s): %s" (errors r)
         (String.concat "; " firsts))

let install () = Elk.Compile.set_verifier (Some check)
let () = install ()

let pp_report fmt r =
  List.iter (fun d -> Format.fprintf fmt "%a@." Diag.pp d) r.diags;
  Format.fprintf fmt "%s: %d error(s), %d warning(s), %d info(s) — %d rules over %d ops@."
    r.model (errors r) (warnings r) (infos r)
    (List.length r.rules_checked)
    r.n_ops

module J = Elk_obs.Jsonx

let report_to_json r =
  Printf.sprintf
    "{\"model\":%s,\"ops\":%d,\"rules\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"diagnostics\":[%s]}"
    (J.quote r.model) r.n_ops
    (String.concat "," (List.map J.quote r.rules_checked))
    (errors r) (warnings r) (infos r)
    (String.concat "," (List.map Diag.to_json r.diags))
