open Elk_model
module P = Elk_partition.Partition

exception Infeasible of string

exception Pruned
(* Raised by [run ~cutoff] as soon as the schedule under construction
   cannot finish with an estimate within [cutoff] (see the bound note
   below). *)

(* The scheduler implements the backward induction of §4.2 with the
   preload sequence generalized to an arbitrary order (§4.4).  For each
   operator i (scheduled from the last to the first) it picks a preload
   HORIZON h: the number of preload positions allowed to start before
   exec(i) ends.  The paper's preload number for op i is [h_i - h_{i-1}].
   The horizon must cover the preload positions of every operator
   executing up to i+1 (they must have started loading by then); it may
   exceed a later operator's horizon — forward execution monotonizes
   (a preload allowed during an earlier execution stays started), so
   effective horizons are the running maximum.  Theorem 4.2's bound
   applies:

     T_e_exe(i) = min (T_s_exe(i+1), T_s_pre(position h))

   and the horizon maximizing T_s_exe(i) = T_e_exe(i) - span(i) wins,
   where span(i) comes from the cost-aware allocator run over the
   operators resident on chip at that horizon. *)

let frontiers ctx graph = Array.map (Alloc.exec_frontier ctx) (Graph.nodes graph)

(* What a step's horizon search keeps: the best start so far and the
   kept horizon's start, and that horizon (-1 for none) with its search's
   plan index, window prefix and descent steps.  Fields of a float-only
   record and of an int record, not refs the span closure would box. *)
type starts = { mutable best_start : float; mutable kept_start : float }
type kept = {
  mutable kept_h : int;
  mutable kept_index : int;
  mutable kept_len : int;
  mutable kept_steps : int;
}

let run ?order ?frontiers ?(max_preload = 32) ?(cutoff = infinity) ctx graph =
  Elk_obs.Metrics.incr "elk_scheduler_runs_total"
    ~help:"Scheduler invocations (one per candidate preload order)";
  let n = Graph.length graph in
  if n = 0 then raise (Infeasible "empty graph");
  (match frontiers with
  | Some fs when Array.length fs <> n -> invalid_arg "Scheduler.run: one frontier per node"
  | _ -> ());
  let order =
    match order with Some o -> Array.copy o | None -> Array.init n (fun i -> i)
  in
  if Array.length order <> n then raise (Infeasible "preload order length mismatch");
  let pos = Array.make n (-1) in
  Array.iteri (fun k id -> if id >= 0 && id < n then pos.(id) <- k) order;
  if Array.exists (fun p -> p < 0) pos then
    raise (Infeasible "preload order is not a permutation");
  let chip = P.ctx_chip ctx in
  let capacity = Elk_arch.Arch.usable_sram_per_core chip in
  let s_exe = Array.make n 0. in
  (* Preload start times, indexed by preload POSITION.  The channel is
     sequential in position order, so [spos.(k)] obeys the backward chain
     [spos.(k) = min (s_exe (op_k), spos.(k+1)) - len (op_k)].  With an
     arbitrary preload order the op at position [k+1] may execute earlier
     than the op at [k], so the chain can only be evaluated over the
     suffix of positions whose operators have all been scheduled; the
     suffix is recomputed as the induction advances (positions >=
     [h_floor.(i-1)] hold only operators executing >= i).  Unscheduled
     positions keep [infinity] (no constraint) and are never read —
     horizon bounds only access positions >= [h_floor.(i+1)]. *)
  let spos = Array.make (n + 1) infinity in
  let horizon = Array.make n n in
  let popts : P.preload_opt option array = Array.make n None in
  (* Running maximum of preload positions over execution prefixes:
     [h_floor.(i)] = 1 + max position among ops 0..i. *)
  let h_floor = Array.make n 0 in
  Array.iteri
    (fun id _ -> h_floor.(id) <- (if id = 0 then pos.(0) + 1 else max h_floor.(id - 1) (pos.(id) + 1)))
    pos;
  let s_pre_pos h = if h >= n then infinity else spos.(h) in
  let node_of i = Graph.get graph i in
  (* Each scheduled operator's fixed plan with its preload-state frontier,
     resolved once: every later allocation window holding it, and every
     read of its options below, reuses it. *)
  let fronts : Alloc.frontier option array = Array.make n None in
  let front_of id =
    match fronts.(id) with
    | Some f -> f
    | None -> raise (Infeasible "window op scheduled out of order")
  in
  (* As-late-as-possible preload length of each scheduled operator, read by
     the preload-channel passes below: its window's option once an
     allocation assigns one, its least-overhead option until then, exactly
     as the final materialization will. *)
  let pre_len = Array.make n 0. in
  let fix_front id f =
    fronts.(id) <- Some f;
    pre_len.(id) <- (Alloc.least_overhead f).P.preload_len
  in
  let starts = { best_start = neg_infinity; kept_start = neg_infinity } in
  let best = { kept_h = -1; kept_index = -1; kept_len = -1; kept_steps = -1 } in
  for i = n - 1 downto 0 do
    let node = node_of i in
    let h_low = if i = n - 1 then n else h_floor.(min (n - 1) (i + 1)) in
    let h_high = if i = n - 1 then n else min n (h_low + max_preload) in
    let next_s_exe = if i = n - 1 then 0. else s_exe.(i + 1) in
    starts.best_start <- neg_infinity;
    best.kept_h <- -1;
    let h = ref h_low in
    let stop = ref false in
    let exec, window =
      Elk_obs.Span.with_span "allocate" (fun () ->
          (* Op i's frontier, resolved once for every horizon of this step
             (or once for the whole search, when the caller shares them). *)
          let exec =
            match frontiers with Some fs -> fs.(i) | None -> Alloc.exec_frontier ctx node
          in
          (* Residents at horizon h: operators at preload positions < h
             that execute after i, collected once for the largest horizon
             in position order.  Positions >= h_low (= h_floor.(i+1)) hold
             only operators after i + 1, so past h_low each horizon adds
             exactly one resident: horizon h's window is the first
             [base + h - h_low] of them. *)
          let residents =
            let acc = ref [] in
            for k = h_high - 1 downto 0 do
              let w = order.(k) in
              if w > i then acc := front_of w :: !acc
            done;
            Array.of_list !acc
          in
          let base = Array.length residents - (h_high - h_low) in
          let window = Alloc.window exec residents in
          while (not !stop) && !h <= h_high do
            let len = base + !h - h_low in
            if Alloc.search ~capacity ~len window then begin
              (* Estimate op i's own distribution time from the option that
                 would fit in the spare capacity left by this combination. *)
              let found = Alloc.found window in
              let spare = Float.max 0. (capacity -. found.Alloc.found_total_space) in
              let exec_index = Alloc.found_exec_index window in
              let dist_est =
                (Alloc.least_overhead_within (Alloc.exec_options exec exec_index) ~space:spare)
                  .P.dist_time
              in
              let span = found.Alloc.found_exec_time +. dist_est in
              (* [s_pre_pos !h], read in place: a call from this closure
                 would box its result. *)
              let gate = if !h >= n then infinity else spos.(!h) in
              let start = Float.min next_s_exe gate -. span in
              (* Keep the best start time; among near-ties take the
                 largest horizon — a larger horizon only relaxes the
                 gates of earlier operators.  Horizons come in
                 ascending order, and a horizon that raises the best
                 start is within tolerance of it, so the last horizon
                 within tolerance of the best start seen so far is the
                 largest within tolerance of the final best. *)
              starts.best_start <- Float.max starts.best_start start;
              if start >= starts.best_start -. (0.02 *. Float.max 1e-9 span) then begin
                starts.kept_start <- start;
                best.kept_h <- !h;
                best.kept_index <- exec_index;
                best.kept_len <- len;
                best.kept_steps <- Alloc.found_steps window
              end
            end
            else begin
              (* The residency window overflowed SRAM: the horizon search
                 backtracks to the horizons searched so far. *)
              Elk_obs.Metrics.incr "elk_scheduler_backtracks_total"
                ~help:"Horizon searches stopped by an SRAM-overflowing window";
              stop := true
            end;
            incr h
          done;
          (exec, window))
    in
    (* A NaN start leaves no best start, as it leaves no horizon within
       tolerance of one. *)
    if Float.is_nan starts.best_start then best.kept_h <- -1;
    if best.kept_h < 0 then begin
      (* Even the minimal residency overflows the SRAM: fall back to the
         smallest plans, tolerating the capacity violation (the timeline
         and simulator will charge the contention). *)
      Elk_obs.Metrics.incr "elk_scheduler_retries_total"
        ~help:"Operators retried with smallest-plan fallback after overflow";
      Elk_obs.Logger.debug ~src:"scheduler"
        ~kvs:[ ("op", node.Graph.op.Elk_tensor.Opspec.name) ]
        "smallest-plan fallback";
      if Alloc.plan_count exec = 0 then
        raise
          (Infeasible
             (Printf.sprintf "operator %s does not fit on the chip"
                node.Graph.op.Elk_tensor.Opspec.name));
      let front = Alloc.exec_options exec 0 in
      let plan = Alloc.plan front in
      let dist_est = P.preload_overhead (Alloc.least_overhead front) in
      let span = plan.P.exec_time +. dist_est in
      let bound = Float.min next_s_exe (s_pre_pos h_low) in
      fix_front i front;
      horizon.(i) <- h_low;
      s_exe.(i) <- bound -. span
    end
    else begin
      fix_front i (Alloc.exec_options exec best.kept_index);
      horizon.(i) <- best.kept_h;
      s_exe.(i) <- starts.kept_start;
      List.iter
        (fun (w, o) ->
          popts.(w) <- Some o;
          pre_len.(w) <- o.P.preload_len)
        (Alloc.chosen_at window ~len:best.kept_len ~steps:best.kept_steps)
    end;
    (* Branch-and-bound early exit (§4.4 search): the backward induction
       pins op [n-1]'s window bound at 0, and every earlier start can only
       move left — [s_exe] is nondecreasing in [i] — while the final
       estimate is [-(min s_exe.(0) spos.(0)) >= -s_exe.(i)].  So once
       [-s_exe.(i)] exceeds the caller's cutoff the completed schedule's
       [est_total] would too, and the remaining O(n) induction steps (each
       an allocator sweep) are wasted work.  That bounds this estimate
       only, not [Timeline.lower_bound]'s stall-free makespan of the same
       schedule, which the estimate exceeds on 113 of the zoo's 206
       candidate schedules (by up to 3.6%); the caller's cutoff margin
       absorbs the gap. *)
    if 0. -. s_exe.(i) > cutoff then begin
      Elk_obs.Metrics.incr "elk_scheduler_early_exits_total"
        ~help:"Scheduler runs abandoned mid-induction by the search cutoff";
      raise Pruned
    end;
    (* Re-evaluate the preload channel over the well-defined suffix of
       positions (all their operators now scheduled), placing each preload
       as late as possible: just before its operator's execution or before
       the next preload in order, whichever is earlier. *)
    let h_from = if i = 0 then 0 else h_floor.(i - 1) in
    for k = n - 1 downto h_from do
      let w = order.(k) in
      if w >= i then spos.(k) <- Float.min s_exe.(w) (s_pre_pos (k + 1)) -. pre_len.(w)
    done
  done;
  (* Op 0 is never inside any window; give it the biggest option that fits
     beside its own execution space. *)
  (match popts.(0) with
  | Some _ -> ()
  | None ->
      let f0 = front_of 0 in
      popts.(0) <-
        Some
          (Alloc.least_overhead_within f0
             ~space:(Float.max 0. (capacity -. (Alloc.plan f0).P.exec_space))));
  (* Materialize every operator's preload option now so the repair pass
     below and the final entries agree on what is resident. *)
  for id = 0 to n - 1 do
    match popts.(id) with
    | Some _ -> ()
    | None -> popts.(id) <- Some (Alloc.least_overhead (front_of id))
  done;
  (* Horizons need not be monotone across steps (a later operator may have
     chosen a smaller one); forward execution monotonizes them — a preload
     that was allowed to start during an earlier execution stays started. *)
  let eff = Array.make n 0 in
  Array.iteri
    (fun i h -> eff.(i) <- (if i = 0 then h else max eff.(i - 1) h))
    horizon;
  eff.(n - 1) <- n;
  let windows = Array.make (n + 1) 0 in
  windows.(0) <- pos.(0) + 1;
  if n > 1 then windows.(1) <- eff.(0) - windows.(0);
  for i = 1 to n - 1 do
    windows.(i + 1) <- eff.(i) - eff.(i - 1)
  done;
  (* Capacity repair.  Each step's allocation sized its residency with the
     horizon that step chose, but the forward monotonization above can
     leave MORE preloads live during a step than its allocation accounted
     for: a window opened by an earlier-executing operator keeps later
     positions resident.  Replay the effective residency and, wherever
     the combined per-core footprint overflows the SRAM, demote resident
     operators one Pareto step down their preload-option frontiers —
     cheapest overhead per freed byte first — until the step fits or
     every resident is already minimal (any remaining overflow is the
     documented smallest-plan fallback, charged as contention by the
     timeline and simulator). *)
  let issued = Array.make n 0 in
  let running = ref windows.(0) in
  for i = 0 to n - 1 do
    running := !running + windows.(i + 1);
    issued.(i) <- !running
  done;
  let popt_of id = match popts.(id) with Some o -> o | None -> assert false in
  let plan_of id = Alloc.plan (front_of id) in
  for i = 0 to n - 1 do
    let usage () =
      let u = ref (plan_of i).P.exec_space in
      for k = 0 to issued.(i) - 1 do
        let w = order.(k) in
        if w > i then u := !u +. (popt_of w).P.preload_space
      done;
      !u
    in
    let exhausted = ref false in
    while (not !exhausted) && usage () > capacity +. 1e-6 do
      (* Best single demotion among residents: the next-smaller option of
         the operator whose step costs the least added overhead per byte
         freed. *)
      let best = ref None in
      for k = 0 to issued.(i) - 1 do
        let w = order.(k) in
        if w > i then begin
          let cur = popt_of w in
          let next_smaller =
            Array.fold_left
              (fun acc o ->
                if o.P.preload_space < cur.P.preload_space -. 1e-9 then
                  match acc with
                  | Some a when a.P.preload_space >= o.P.preload_space -> acc
                  | _ -> Some o
                else acc)
              None
              (Alloc.options (front_of w))
          in
          match next_smaller with
          | None -> ()
          | Some o ->
              let freed = cur.P.preload_space -. o.P.preload_space in
              let cost =
                Float.max 0. (P.preload_overhead o -. P.preload_overhead cur)
                /. Float.max 1e-12 freed
              in
              (match !best with
              | Some (bcost, _, _) when bcost <= cost -> ()
              | _ -> best := Some (cost, w, o))
        end
      done;
      match !best with
      | None -> exhausted := true
      | Some (_, w, o) ->
          Elk_obs.Metrics.incr "elk_scheduler_popt_demotions_total"
            ~help:"Preload options demoted by the capacity-repair pass";
          popts.(w) <- Some o
    done
  done;
  let entries =
    Array.init n (fun id ->
        let plan = plan_of id in
        let popt = popt_of id in
        {
          Schedule.node_id = id;
          plan;
          popt;
          preload_len = popt.P.preload_len;
          dist_time = popt.P.dist_time;
        })
  in
  let t_start = Float.min s_exe.(0) spos.(0) in
  let sched = { Schedule.graph; order; windows; entries; est_total = 0. -. t_start } in
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> raise (Infeasible ("internal: invalid schedule: " ^ msg)));
  sched

let preload_numbers (s : Schedule.t) =
  Array.sub s.Schedule.windows 1 (Array.length s.Schedule.windows - 1)
