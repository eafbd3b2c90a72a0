open Elk_util
open Elk_arch
module P = Elk_partition.Partition

type result = {
  exec_plan : P.plan;
  exec_index : int;
  len : int;
  steps : int;
  exec_time : float;
  objective : float;
  total_space : float;
  contention : float;
}

(* ---- address intervals -------------------------------------------------

   A placed buffer: a half-open per-core SRAM byte interval
   [a_base, a_base + a_size) assigned to one operator's preload- or
   execute-state footprint.  Bytes stay floats end to end so the interval
   arithmetic is bit-compatible with the Pareto spaces the allocator
   trades off (rounding here would make the packed extent disagree with
   the capacity check by up to one byte per participant). *)

type allocation = {
  a_op : int;
  a_kind : Residency.kind;
  a_base : float;
  a_size : float;
}

let overlaps a b =
  (* Half-open intersection: touching intervals ([0,4) and [4,8)) do not
     overlap.  Zero-byte buffers overlap nothing, not even themselves. *)
  a.a_size > 0. && b.a_size > 0.
  && a.a_base < b.a_base +. b.a_size
  && b.a_base < a.a_base +. a.a_size

(* Bump-pack a window combination: every participant is live at once
   during the execute step, so addresses are consecutive. *)
let pack sized =
  let _, placed =
    List.fold_left
      (fun (base, acc) (a_op, a_kind, a_size) ->
        (base +. a_size, { a_op; a_kind; a_base = base; a_size } :: acc))
      (0., []) sized
  in
  List.rev placed

let well_packed placed =
  let rec go = function
    | [] -> true
    | a :: tl -> (not (List.exists (overlaps a) tl)) && go tl
  in
  go placed

(* Whether the bump packing of [n] sizes ([size k] in packing order) is
   disjoint, in one pass.  With no negative size it is by construction:
   each base is the previous base plus a nonnegative size, and adding a
   nonnegative float never rounds below the augend, so a later base is at
   least an earlier interval's end as [overlaps] computes it; NaN and
   infinities make [overlaps]'s comparisons false.  Only a negative size
   needs the pairwise scan. *)
let packing_disjoint_n n size =
  let rec nonnegative k = k >= n || ((not (size k < 0.)) && nonnegative (k + 1)) in
  nonnegative 0
  || well_packed (pack (List.init n (fun k -> (k, Residency.Preload, size k))))

let packing_disjoint sizes =
  let sizes = Array.of_list sizes in
  packing_disjoint_n (Array.length sizes) (Array.get sizes)

(* First-fit address layout over the whole schedule's buffer lifetimes.

   Liveness is measured in program-instruction indices, the coordinate in
   which the race analysis reasons: a preload buffer is live from its
   [preload_async] to its consuming [execute] (inclusive — during the
   distribution phase the preload bytes and the execute state coexist),
   an execute buffer only during its own [execute] (the exchange tail is
   part of that step).  Two buffers may share addresses only when those
   intervals are disjoint.  Deterministic: buffers are placed in
   ascending allocation-time order with the operator id as tie-break, and
   each goes to the lowest base that fits. *)
let layout_of_schedule (s : Schedule.t) =
  let n = Schedule.num_ops s in
  let prog = Program.of_schedule s in
  let issue_at = Array.make n 0 and exec_at = Array.make n 0 in
  Array.iteri
    (fun k instr ->
      match instr with
      | Program.Preload_async op -> if op >= 0 && op < n then issue_at.(op) <- k
      | Program.Execute op -> if op >= 0 && op < n then exec_at.(op) <- k)
    prog.Program.instrs;
  (* (live_lo, live_hi, op, kind, bytes) per nonempty buffer. *)
  let buffers = ref [] in
  for op = n - 1 downto 0 do
    let e = s.Schedule.entries.(op) in
    if e.Schedule.plan.P.exec_space > 0. then
      buffers :=
        (exec_at.(op), exec_at.(op), op, Residency.Exec, e.Schedule.plan.P.exec_space)
        :: !buffers;
    if e.Schedule.popt.P.preload_space > 0. then
      buffers :=
        (issue_at.(op), exec_at.(op), op, Residency.Preload, e.Schedule.popt.P.preload_space)
        :: !buffers
  done;
  let buffers =
    List.sort
      (fun (lo1, _, op1, k1, _) (lo2, _, op2, k2, _) ->
        compare (lo1, op1, k1) (lo2, op2, k2))
      !buffers
  in
  let placed = ref [] in
  let place (lo, hi, a_op, a_kind, a_size) =
    let conflicts =
      List.filter (fun (plo, phi, _) -> plo <= hi && lo <= phi) !placed
    in
    (* Candidate bases: 0 and the end of every conflicting interval;
       lowest admissible wins (classic first-fit). *)
    let fits base =
      let cand = { a_op; a_kind; a_base = base; a_size } in
      not (List.exists (fun (_, _, a) -> overlaps cand a) conflicts)
    in
    let base =
      List.fold_left
        (fun best (_, _, a) ->
          let c = a.a_base +. a.a_size in
          if c < best && fits c then c else best)
        (if fits 0. then 0. else infinity)
        conflicts
    in
    let base =
      if Float.is_finite base then base
      else
        (* Every candidate collides (possible only through float
           pathologies); fall back to stacking past the furthest end. *)
        List.fold_left (fun e (_, _, a) -> Float.max e (a.a_base +. a.a_size)) 0. conflicts
    in
    placed := (lo, hi, { a_op; a_kind; a_base = base; a_size }) :: !placed
  in
  List.iter place buffers;
  List.rev_map (fun (_, _, a) -> a) !placed
  |> List.sort (fun a b -> compare (a.a_op, a.a_kind) (b.a_op, b.a_kind))

(* A window operator's preload-state frontier, resolved once for the
   operator's fixed plan: its options in ascending preload space, with
   the (space, overhead) pairs the greedy descent steps along. *)
type frontier = {
  f_op : int;
  plan : P.plan;
  options : P.preload_opt array;
  spaces : float array;
  overheads : float array;
  f_nonnegative : bool;  (** no negative space. *)
}

let nonnegative spaces = Array.for_all (fun x -> not (x < 0.)) spaces

let frontier ctx (node : Elk_model.Graph.node) plan =
  let options = Array.of_list (P.preload_options ctx node.Elk_model.Graph.op plan) in
  let spaces = Array.map (fun o -> o.P.preload_space) options in
  let overheads = Array.map P.preload_overhead options in
  {
    f_op = node.Elk_model.Graph.id;
    plan;
    options;
    spaces;
    overheads;
    f_nonnegative = nonnegative spaces;
  }

let plan f = f.plan
let options f = f.options

(* The executing operator's frontier, resolved once per induction step
   and read by every horizon's allocation: its Pareto plans in ascending
   execution space with the (space, time) pairs the descent steps along,
   and each plan's preload frontier, resolved on first use.  The cache is
   plain mutable state, so a value belongs to one domain. *)
type exec_frontier = {
  node : Elk_model.Graph.node;
  ctx : P.ctx;
  plans : P.plan array;
  plan_spaces : float array;
  plan_times : float array;
  plan_options : frontier option array;
  e_nonnegative : bool;
}

let exec_frontier ctx (node : Elk_model.Graph.node) =
  let points = Array.of_list (P.exec_frontier ctx node.Elk_model.Graph.op) in
  let plan_spaces = Array.map (fun p -> p.Pareto.x) points in
  let plan_times = Array.map (fun p -> p.Pareto.y) points in
  {
    node;
    ctx;
    plans = Array.map (fun p -> p.Pareto.payload) points;
    plan_spaces;
    plan_times;
    plan_options = Array.make (Array.length points) None;
    e_nonnegative = nonnegative plan_spaces;
  }

let exec_options ef i =
  match ef.plan_options.(i) with
  | Some f -> f
  | None ->
      let f = frontier ef.ctx ef.node ef.plans.(i) in
      ef.plan_options.(i) <- Some f;
      f

(* One induction step's participants: participant 0 is the executing
   operator, participant [k + 1] the [k]-th resident.  Every search
   starts each participant at its top point (largest space, fastest), so
   what the tops give is computed once per window: the footprint,
   injection and distribution summed left to right over the tops of every
   prefix.  A search of the first [len] residents keeps each
   participant's current point in [idx]: it builds no record and no list
   of its own. *)
type window = {
  exec : exec_frontier;
  residents : frontier array;
  spaces : float array array;  (** per participant, ascending. *)
  times : float array array;  (** per participant, descending. *)
  top : int array;
  top_total : float array;  (** footprint of participants [0 .. k] at their tops. *)
  top_inject : float array;  (** injection of residents [0 .. k - 1] at their tops. *)
  top_dist : float array;  (** overhead of residents [0 .. k - 1] at their tops. *)
  nonnegative : int;  (** participants [0 .. nonnegative - 1] have no negative space. *)
  idx : int array;  (** scratch: each participant's current point. *)
  size : int -> float;  (** participant [k]'s current space. *)
}

let window exec (residents : frontier array) =
  let n = Array.length residents + 1 in
  let spaces = Array.make n exec.plan_spaces and times = Array.make n exec.plan_times in
  let top = Array.make n (Array.length exec.plan_spaces - 1) in
  let top_total = Array.make n 0. in
  let top_inject = Array.make n 0. and top_dist = Array.make n 0. in
  let nonnegative = ref (if exec.e_nonnegative then 1 else 0) in
  (* Sums in the order a search adds: the footprint from 0 over the
     execute state, then the window; injection and distribution over the
     window.  An operator without plans has no top: its searches fail
     before reading these. *)
  if top.(0) >= 0 then top_total.(0) <- 0. +. exec.plan_spaces.(top.(0));
  for k = 1 to n - 1 do
    let f = residents.(k - 1) in
    let t = Array.length f.spaces - 1 in
    spaces.(k) <- f.spaces;
    times.(k) <- f.overheads;
    top.(k) <- t;
    top_total.(k) <- top_total.(k - 1) +. f.spaces.(t);
    top_inject.(k) <- top_inject.(k - 1) +. f.options.(t).P.noc_inject_bytes;
    top_dist.(k) <- top_dist.(k - 1) +. f.overheads.(t);
    if !nonnegative = k && f.f_nonnegative then incr nonnegative
  done;
  let idx = Array.copy top in
  {
    exec;
    residents;
    spaces;
    times;
    top;
    top_total;
    top_inject;
    top_dist;
    nonnegative = !nonnegative;
    idx;
    size = (fun k -> spaces.(k).(idx.(k)));
  }

let reset w len = Array.blit w.top 0 w.idx 0 (len + 1)

(* Step the most cost-effective of participants [0 .. len] — the most
   bytes freed per added second, the first one on ties — one point down
   its frontier, and return it; -1 when every one is at its smallest
   point. *)
let step w len =
  let idx = w.idx in
  let best = ref (-1) and best_d = ref 0. in
  for k = 0 to len do
    let i = idx.(k) in
    if i > 0 then begin
      let s = w.spaces.(k) and t = w.times.(k) in
      let d = (s.(i) -. s.(i - 1)) /. Float.max 1e-12 (t.(i - 1) -. t.(i)) in
      if !best < 0 || not (!best_d >= d) then begin
        best := k;
        best_d := d
      end
    end
  done;
  if !best >= 0 then idx.(!best) <- idx.(!best) - 1;
  !best

let chosen w r =
  reset w r.len;
  for _ = 1 to r.steps do
    ignore (step w r.len)
  done;
  List.init r.len (fun k ->
      let f = w.residents.(k) in
      (f.f_op, f.options.(w.idx.(k + 1))))

(* Why a search failed, formatted only when someone reads it. *)
type infeasible = No_plan | Overflow of { demand : float; preloads : int }

let search ~capacity ~len w =
  if len < 0 || len >= Array.length w.idx then invalid_arg "Alloc.allocate: len out of range";
  if Array.length w.exec.plans = 0 then Error No_plan
  else begin
    reset w len;
    (* The execute state first, then every overlapping preload: the
       bump-pack order of the combination's address intervals.  The
       footprint is the extent of that packing, summed left to right in
       packing order — the same float operations [pack] performs, without
       building the layout. *)
    let total = ref w.top_total.(len) and steps = ref 0 and stuck = ref false in
    let window_stepped = ref (len + 1) in
    while not (!total <= capacity || !stuck) do
      let j = step w len in
      if j < 0 then stuck := true
      else begin
        incr steps;
        if j > 0 && j < !window_stepped then window_stepped := j;
        total := 0.;
        for k = 0 to len do
          total := !total +. w.spaces.(k).(w.idx.(k))
        done
      end
    done;
    if !stuck then
      (* Every participant is at its smallest Pareto point, so [!total]
         is the irreducible demand of this window combination. *)
      Error (Overflow { demand = !total; preloads = len })
    else begin
      let exec_index = w.idx.(0) in
      let exec_plan = w.exec.plans.(exec_index) in
      (* The intervals the schedule would hand the race analysis are
         disjoint by construction; only a negative space, which a window
         without one cannot hold, needs [packing_disjoint_n]'s scan. *)
      assert (len < w.nonnegative || packing_disjoint_n (len + 1) w.size);
      (* Injection and distribution summed left to right in window order:
         the order fixes the rounding, which the plan choices see. *)
      let first = min (!window_stepped - 1) len in
      let inject_total = ref w.top_inject.(first) and dist_total = ref w.top_dist.(first) in
      for k = first to len - 1 do
        let f = w.residents.(k) and o = w.idx.(k + 1) in
        inject_total := !inject_total +. f.options.(o).P.noc_inject_bytes;
        dist_total := !dist_total +. f.overheads.(o)
      done;
      let chip = P.ctx_chip w.exec.ctx in
      let link_bw = chip.Arch.intercore_link.Arch.bandwidth in
      let cores = float_of_int chip.Arch.cores in
      (* Interconnect contention is a per-core PORT phenomenon: during this
         operator's execution each core's ports serve its own exchange
         (already inside [exec_time] as serialized transfer time) plus its
         share of the preload injection overlapping the execution.  The
         injection rate is bounded by what the HBM can feed. *)
      let inject_overlap_pc =
        Float.min (!inject_total /. cores)
          (chip.Arch.hbm_bandwidth /. cores *. exec_plan.P.exec_time)
      in
      let exchange_pc = exec_plan.P.exchange_bytes_per_core in
      let port_service = (inject_overlap_pc +. exchange_pc) /. link_bw in
      let contention = Float.max 0. (port_service -. exec_plan.P.exec_time) in
      Ok
        {
          exec_plan;
          exec_index;
          len;
          steps = !steps;
          exec_time = exec_plan.P.exec_time +. contention;
          objective = exec_plan.P.exec_time +. contention +. !dist_total;
          total_space = !total;
          contention;
        }
    end
  end

let explain ~capacity w reason =
  let op_label =
    Printf.sprintf "op %d (%s)" w.exec.node.Elk_model.Graph.id
      w.exec.node.Elk_model.Graph.op.Elk_tensor.Opspec.name
  in
  match reason with
  | No_plan ->
      Printf.sprintf
        "allocation infeasible for %s: no execute-state plan fits %.0f \
         B/core SRAM"
        op_label capacity
  | Overflow { demand; preloads } ->
      Printf.sprintf
        "allocation infeasible for %s: minimal demand %.0f B/core \
         (execute state + %d overlapping preloads) exceeds %.0f B/core \
         SRAM by %.0f B"
        op_label demand preloads capacity (demand -. capacity)

let allocate_or_error ~capacity ~len w =
  Result.map_error (explain ~capacity w) (search ~capacity ~len w)

let allocate ~capacity ~len w =
  match search ~capacity ~len w with
  | Ok r -> Some r
  | Error reason ->
      (* Infeasibility is routine during the window search (the caller
         retries with fewer preloads), so this is debug-level — but the
         message names the capacity, the demanded bytes, and the
         offending operator instead of a bare [None]. *)
      if Elk_obs.Logger.enabled Elk_obs.Logger.Debug then
        Elk_obs.Logger.debug ~src:"alloc" (explain ~capacity w reason);
      None

let min_preload_space ctx (node : Elk_model.Graph.node) =
  match P.exec_frontier ctx node.Elk_model.Graph.op with
  | [] -> infinity
  | frontier ->
      (* The smallest preload footprint over all execute-state plans. *)
      List.fold_left
        (fun acc pt ->
          let opts = P.preload_options ctx node.Elk_model.Graph.op pt.Pareto.payload in
          List.fold_left (fun a o -> Float.min a o.P.preload_space) acc opts)
        infinity frontier
