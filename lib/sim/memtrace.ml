(* Dynamic SRAM-residency record of one simulator run.

   The simulator builds one [op_mem] per operator after its event loop,
   from the operator's phase times — preload reserve (issue gate),
   preload delivery, first use (execute start), last tile-compute use
   and release (execute end) — and the byte sizes the schedule fixed.
   Everything else (per-core occupancy change points, high-water marks,
   chip aggregates, wasted residency) is derived on demand from those
   records, and nothing here is ever read back into a timing
   computation.

   Core layout mirrors the device model: preload buffers land on every
   core (the controllers broadcast each core's preload-space bytes);
   an execute footprint occupies cores [0 .. cores_used-1].  Core 0
   therefore sees every buffer, making its occupancy the pointwise
   per-core maximum — the high-water mark reduces to a fold over one
   core's change points. *)

type op_mem = {
  m_reserve : float;  (* preload issue gate *)
  m_deliver : float;  (* preload delivery completes *)
  m_first_use : float;  (* execute start *)
  m_release : float;  (* execute end *)
  m_tail_start : float;  (* compute end: last tile-compute use *)
  m_preload_bytes : float;  (* per-core, on every core *)
  m_exec_bytes : float;  (* per-core, on cores 0..m_exec_cores-1 *)
  m_exec_cores : int;
}

type t = { cores : int; ops : op_mem array }

let make ~cores ops = { cores; ops }
let cores t = t.cores
let num_ops t = Array.length t.ops
let op_mem t op = t.ops.(op)

(* ---- derived samples -------------------------------------------------- *)

type change = Reserve | Convert | Hold | Release

type sample = {
  s_t : float;
  s_op : int;
  s_change : change;
  s_delta : float;  (* per-core byte delta on each affected core *)
  s_cores : int;  (* cores 0 .. s_cores-1 are affected *)
}

(* All occupancy change points, chronological; ties resolve in op order
   then emission order (stable sort), so derived series are
   deterministic. *)
let samples t =
  let out = ref [] in
  Array.iteri
    (fun op m ->
      if m.m_preload_bytes > 0. then begin
        out :=
          { s_t = m.m_reserve; s_op = op; s_change = Reserve;
            s_delta = m.m_preload_bytes; s_cores = t.cores }
          :: !out;
        (* The preload buffer converts to execute state when the
           operator starts: its bytes leave every core... *)
        out :=
          { s_t = m.m_first_use; s_op = op; s_change = Convert;
            s_delta = -.m.m_preload_bytes; s_cores = t.cores }
          :: !out
      end;
      if m.m_exec_bytes > 0. && m.m_exec_cores > 0 then begin
        (* ...and the execute footprint lands on the cores used. *)
        out :=
          { s_t = m.m_first_use; s_op = op; s_change = Hold;
            s_delta = m.m_exec_bytes; s_cores = m.m_exec_cores }
          :: !out;
        out :=
          { s_t = m.m_release; s_op = op; s_change = Release;
            s_delta = -.m.m_exec_bytes; s_cores = m.m_exec_cores }
          :: !out
      end)
    t.ops;
  let arr = Array.of_list (List.rev !out) in
  (* Stable on ties: per-op emission order (Reserve before Convert,
     Convert before Hold at equal times) is preserved. *)
  let keyed = Array.mapi (fun i s -> (s.s_t, i, s)) arr in
  Array.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) keyed;
  Array.map (fun (_, _, s) -> s) keyed

(* Occupancy change points of one core: (time, per-core bytes) after
   each change that touches it, duplicate times collapsed to the last
   value. *)
let occupancy t ~core =
  if core < 0 || core >= t.cores then invalid_arg "Memtrace.occupancy: bad core";
  let pts = ref [] in
  let level = ref 0. in
  Array.iter
    (fun s ->
      if core < s.s_cores then begin
        level := !level +. s.s_delta;
        match !pts with
        | (tp, _) :: rest when tp = s.s_t -> pts := (s.s_t, !level) :: rest
        | _ -> pts := (s.s_t, !level) :: !pts
      end)
    (samples t);
  List.rev !pts

(* Chip-aggregate occupancy: total bytes across all cores. *)
let chip_occupancy t =
  let pts = ref [] in
  let level = ref 0. in
  Array.iter
    (fun s ->
      level := !level +. (s.s_delta *. float_of_int s.s_cores);
      match !pts with
      | (tp, _) :: rest when tp = s.s_t -> pts := (s.s_t, !level) :: rest
      | _ -> pts := (s.s_t, !level) :: !pts)
    (samples t);
  List.rev !pts

let core_high_water t core =
  List.fold_left (fun a (_, v) -> Float.max a v) 0. (occupancy t ~core)

(* Core 0 holds every preload buffer and every execute footprint, so its
   occupancy bounds every other core's pointwise. *)
let high_water t = if t.cores = 0 then 0. else core_high_water t 0

let chip_high_water t =
  List.fold_left (fun a (_, v) -> Float.max a v) 0. (chip_occupancy t)

(* ---- wasted residency ------------------------------------------------- *)

(* Byte-seconds a preload buffer sits delivered but unused, summed over
   the cores holding it. *)
let pre_use_waste t op =
  let m = t.ops.(op) in
  if m.m_preload_bytes <= 0. then 0.
  else
    m.m_preload_bytes *. float_of_int t.cores
    *. Float.max 0. (m.m_first_use -. m.m_deliver)

(* Byte-seconds the execute footprint stays resident after its last
   tile-compute use, over the exchange/reduction tail. *)
let post_use_waste t op =
  let m = t.ops.(op) in
  if m.m_exec_bytes <= 0. then 0.
  else
    m.m_exec_bytes *. float_of_int m.m_exec_cores
    *. Float.max 0. (m.m_release -. m.m_tail_start)

let total_pre_use_waste t =
  let acc = ref 0. in
  for op = 0 to num_ops t - 1 do
    acc := !acc +. pre_use_waste t op
  done;
  !acc

let total_post_use_waste t =
  let acc = ref 0. in
  for op = 0 to num_ops t - 1 do
    acc := !acc +. post_use_waste t op
  done;
  !acc
