open Elk_util
open Elk_arch
module P = Elk_partition.Partition

type result = {
  exec_plan : P.plan;
  exec_index : int;
  window : (int * P.preload_opt) list;
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
  options : P.preload_opt array;
  spaces : float array;
  overheads : float array;
}

let frontier ctx (node : Elk_model.Graph.node) plan =
  let options = Array.of_list (P.preload_options ctx node.Elk_model.Graph.op plan) in
  {
    f_op = node.Elk_model.Graph.id;
    options;
    spaces = Array.map (fun o -> o.P.preload_space) options;
    overheads = Array.map P.preload_overhead options;
  }

(* The executing operator's frontier, resolved once per induction step
   and read by every horizon's allocation: its Pareto plans in ascending
   execution space with the (space, time) pairs the descent steps along,
   and each plan's preload options, resolved on first use.  The option
   cache is plain mutable state, so a value belongs to one domain. *)
type exec_frontier = {
  node : Elk_model.Graph.node;
  ctx : P.ctx;
  plans : P.plan array;
  plan_spaces : float array;
  plan_times : float array;
  plan_options : P.preload_opt list option array;
}

let exec_frontier ctx (node : Elk_model.Graph.node) =
  let points = Array.of_list (P.exec_frontier ctx node.Elk_model.Graph.op) in
  {
    node;
    ctx;
    plans = Array.map (fun p -> p.Pareto.payload) points;
    plan_spaces = Array.map (fun p -> p.Pareto.x) points;
    plan_times = Array.map (fun p -> p.Pareto.y) points;
    plan_options = Array.make (Array.length points) None;
  }

let exec_options ef i =
  match ef.plan_options.(i) with
  | Some opts -> opts
  | None ->
      let opts = P.preload_options ef.ctx ef.node.Elk_model.Graph.op ef.plans.(i) in
      ef.plan_options.(i) <- Some opts;
      opts

(* One participant in the greedy descent: a frontier of (space, time)
   choices, currently sitting at [idx] (starting at the largest-space /
   fastest end) and able to step down to [idx - 1]. *)
type participant = {
  spaces : float array;  (** ascending. *)
  times : float array;  (** descending. *)
  mutable idx : int;
}

let participant spaces times = { spaces; times; idx = Array.length spaces - 1 }

let[@inline] step_delta p =
  let freed = p.spaces.(p.idx) -. p.spaces.(p.idx - 1) in
  let slower = Float.max 1e-12 (p.times.(p.idx - 1) -. p.times.(p.idx)) in
  freed /. slower

(* Why a search failed, formatted only when someone reads it. *)
type infeasible = No_plan | Overflow of { demand : float; preloads : int }

let search ~capacity ~exec ~window =
  if Array.length exec.plans = 0 then Error No_plan
  else begin
    (* The execute state first, then every overlapping preload: the
       bump-pack order of the combination's address intervals. *)
    let parts =
      Array.make (1 + List.length window) (participant exec.plan_spaces exec.plan_times)
    in
    List.iteri
      (fun k (f : frontier) -> parts.(k + 1) <- participant f.spaces f.overheads)
      window;
    let size k =
      let p = parts.(k) in
      p.spaces.(p.idx)
    in
    (* The combination's per-core footprint: the extent of its bump
       packing, summed left to right in packing order — the same float
       operations [pack] performs, without building the layout. *)
    let total () =
      let t = ref 0. in
      for k = 0 to Array.length parts - 1 do
        t := !t +. size k
      done;
      !t
    in
    let rec descend () =
      if total () <= capacity then true
      else begin
        (* Step the most cost-effective participant — the most bytes
           freed per added second, the first one on ties — one point
           down its frontier. *)
        let best = ref (-1) and best_d = ref 0. in
        for k = 0 to Array.length parts - 1 do
          let p = parts.(k) in
          if p.idx > 0 then begin
            let d = step_delta p in
            if !best < 0 || not (!best_d >= d) then begin
              best := k;
              best_d := d
            end
          end
        done;
        if !best < 0 then false
        else begin
          let p = parts.(!best) in
          p.idx <- p.idx - 1;
          descend ()
        end
      end
    in
    if not (descend ()) then
      (* Every participant is at its smallest Pareto point, so [total ()]
         is the irreducible demand of this window combination. *)
      Error (Overflow { demand = total (); preloads = List.length window })
    else begin
      let exec_index = parts.(0).idx in
      let exec_plan = exec.plans.(exec_index) in
      (* The intervals the schedule would hand the race analysis are
         disjoint by construction. *)
      assert (packing_disjoint_n (Array.length parts) size);
      let chosen_window =
        List.mapi (fun k (f : frontier) -> (f.f_op, f.options.(parts.(k + 1).idx))) window
      in
      (* Injection and distribution summed left to right in window order:
         the order fixes the rounding, which the plan choices see. *)
      let inject_total = ref 0. and dist_total = ref 0. and rest = ref window in
      for k = 1 to Array.length parts - 1 do
        match !rest with
        | [] -> ()
        | (f : frontier) :: tl ->
            let o = parts.(k).idx in
            inject_total := !inject_total +. f.options.(o).P.noc_inject_bytes;
            dist_total := !dist_total +. f.overheads.(o);
            rest := tl
      done;
      let chip = P.ctx_chip exec.ctx in
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
          window = chosen_window;
          exec_time = exec_plan.P.exec_time +. contention;
          objective = exec_plan.P.exec_time +. contention +. !dist_total;
          total_space = total ();
          contention;
        }
    end
  end

let explain ~capacity exec reason =
  let op_label =
    Printf.sprintf "op %d (%s)" exec.node.Elk_model.Graph.id
      exec.node.Elk_model.Graph.op.Elk_tensor.Opspec.name
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

let allocate_or_error ~capacity ~exec ~window =
  Result.map_error (explain ~capacity exec) (search ~capacity ~exec ~window)

let allocate ~capacity ~exec ~window =
  match search ~capacity ~exec ~window with
  | Ok r -> Some r
  | Error reason ->
      (* Infeasibility is routine during the window search (the caller
         retries with fewer preloads), so this is debug-level — but the
         message names the capacity, the demanded bytes, and the
         offending operator instead of a bare [None]. *)
      if Elk_obs.Logger.enabled Elk_obs.Logger.Debug then
        Elk_obs.Logger.debug ~src:"alloc" (explain ~capacity exec reason);
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
