(* Windowed time series over *simulated* time.

   The metrics registry (Metrics) aggregates over a whole run; serving
   studies need "over time": queue depth, throughput, rolling latency
   percentiles.  A [t] is a set of named series, each a ring of
   fixed-width windows laid edge to edge from t = 0.  Recording is
   cheap (append an event); all aggregation happens at export, so the
   same recorded events can be replayed into any report.  Everything is
   deterministic: simulated timestamps in, pure folds out. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type series = {
  s_kind : kind;
  s_help : string;
  mutable s_events : (float * float) list;  (* (time, value), newest first *)
  mutable s_count : int;
}

type t = {
  width : float;
  capacity : int;  (* ring size: windows older than the newest [capacity] drop *)
  tbl : (string, series) Hashtbl.t;
  mutable order : string list;  (* newest first *)
}

let create ?(window = 1e-3) ?(capacity = max_int) () =
  if not (Float.is_finite window) || window <= 0. then
    invalid_arg "Timeseries.create: window must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  { width = window; capacity; tbl = Hashtbl.create 16; order = [] }

let window t = t.width

let find_or_add t name kind help =
  match Hashtbl.find_opt t.tbl name with
  | Some s ->
      if s.s_kind <> kind then
        invalid_arg
          (Printf.sprintf "Timeseries: %S is a %s, not a %s" name
             (kind_name s.s_kind) (kind_name kind));
      s
  | None ->
      let s = { s_kind = kind; s_help = help; s_events = []; s_count = 0 } in
      Hashtbl.add t.tbl name s;
      t.order <- name :: t.order;
      s

let record t name kind help ~time v =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg (Printf.sprintf "Timeseries: bad timestamp %g for %S" time name);
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Timeseries: non-finite value for %S" name);
  let s = find_or_add t name kind help in
  s.s_events <- (time, v) :: s.s_events;
  s.s_count <- s.s_count + 1

let add t ?(help = "") name ~time by = record t name Counter help ~time by
let set t ?(help = "") name ~time v = record t name Gauge help ~time v
let observe t ?(help = "") name ~time v = record t name Histogram help ~time v

let names t = List.rev t.order
let kind_of t name = Option.map (fun s -> s.s_kind) (Hashtbl.find_opt t.tbl name)
let help_of t name = Option.map (fun s -> s.s_help) (Hashtbl.find_opt t.tbl name)
let events_recorded t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.s_count | None -> 0

(* ---- window aggregation ---------------------------------------------- *)

type point = {
  t0 : float;  (* window start (inclusive) *)
  t1 : float;  (* window end (exclusive) *)
  count : int;  (* events recorded inside the window *)
  sum : float;  (* counter: summed increments; histogram: summed samples;
                   gauge: time integral of the value over the window *)
  mean : float;  (* counter: rate (sum/width); histogram: sample mean;
                    gauge: time-weighted mean *)
  vmin : float;  (* smallest value seen (gauges include the carried-in value) *)
  vmax : float;
  last : float;  (* value at window end: gauges carry forward, counters
                    report the cumulative total, histograms the last sample *)
  p50 : float;  (* histogram windows only; 0 elsewhere *)
  p99 : float;
}

(* A series' events in time order, same-time events in recording order
   (storage is newest first).  Recorders mostly emit in time order, so
   the stable sort runs only when the recording order is not already
   chronological. *)
let chronological s =
  let events = List.rev s.s_events in
  let rec in_order = function
    | (a, _) :: ((b, _) :: _ as rest) -> Float.compare a b <= 0 && in_order rest
    | _ -> true
  in
  if in_order events then events
  else List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events

(* Half-open windows [i*w, (i+1)*w): a sample landing exactly on an edge
   belongs to the window the edge *opens*. *)
let index t time = int_of_float (Float.floor (time /. t.width))

(* Exact percentile over one window's samples (sorted-array
   interpolation, the same rule as Stats.percentile; duplicated here so
   the base observability library stays dependency-free). *)
let percentile p arr =
  let n = Array.length arr in
  if n = 0 then 0.
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

(* Total windows needed to cover every recorded sample and the horizon.
   A sample exactly on edge k*w opens window k, so coverage must extend
   one past its index; an exactly-covered horizon must not. *)
let total_windows t ?horizon s =
  let latest = List.fold_left (fun a (time, _) -> Float.max a time) 0. s.s_events in
  let covering = if s.s_events = [] then 0 else index t latest + 1 in
  let for_horizon =
    match horizon with
    | None -> 0
    | Some h -> int_of_float (Float.ceil (h /. t.width *. (1. -. 1e-12)))
  in
  max 1 (max for_horizon covering)

let n_windows t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> 0
  | Some s -> min t.capacity (total_windows t ?horizon s)

let points t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s ->
      let total = total_windows t ?horizon s in
      let n = min t.capacity total in
      let first = total - n in
      let events = chronological s in
      let buckets = Array.make n [] in
      let counts = Array.make n 0 in
      (* carried state across windows; events older than the ring still
         seed it so a truncated gauge enters with its true value *)
      let gauge_v = ref 0. (* gauge value entering the window *)
      and cum = ref 0. (* counter cumulative total *)
      and last_sample = ref 0. in
      List.iter
        (fun (time, v) ->
          let i = index t time - first in
          if i >= 0 && i < n then begin
            buckets.(i) <- (time, v) :: buckets.(i);
            counts.(i) <- counts.(i) + 1
          end
          else if i < 0 then begin
            gauge_v := v;
            cum := !cum +. v;
            last_sample := v
          end)
        events;
      List.init n (fun i ->
          let t0 = float_of_int (first + i) *. t.width in
          let t1 = float_of_int (first + i + 1) *. t.width in
          let evs = List.rev buckets.(i) in
          let vals = List.map snd evs in
          match s.s_kind with
          | Counter ->
              let sum = List.fold_left ( +. ) 0. vals in
              cum := !cum +. sum;
              {
                t0; t1; count = counts.(i); sum;
                mean = sum /. t.width;
                vmin = List.fold_left Float.min 0. vals;
                vmax = List.fold_left Float.max 0. vals;
                last = !cum; p50 = 0.; p99 = 0.;
              }
          | Gauge ->
              (* integrate the piecewise-constant value over [t0, t1) *)
              let enter = !gauge_v in
              let integral, _, tprev =
                List.fold_left
                  (fun (acc, v, tp) (time, v') ->
                    (acc +. (v *. (time -. tp)), v', time))
                  (0., enter, t0) evs
              in
              let v_end = match List.rev vals with v :: _ -> v | [] -> enter in
              let integral = integral +. (v_end *. (t1 -. tprev)) in
              gauge_v := v_end;
              {
                t0; t1; count = counts.(i);
                sum = integral;
                mean = integral /. t.width;
                vmin = List.fold_left Float.min enter vals;
                vmax = List.fold_left Float.max enter vals;
                last = v_end; p50 = 0.; p99 = 0.;
              }
          | Histogram ->
              let sum = List.fold_left ( +. ) 0. vals in
              let arr = Array.of_list vals in
              Array.sort Float.compare arr;
              (match List.rev vals with v :: _ -> last_sample := v | [] -> ());
              {
                t0; t1; count = counts.(i); sum;
                mean = (if counts.(i) = 0 then 0. else sum /. float_of_int counts.(i));
                vmin = (if arr = [||] then 0. else arr.(0));
                vmax = (if arr = [||] then 0. else arr.(Array.length arr - 1));
                last = !last_sample;
                p50 = percentile 50. arr;
                p99 = percentile 99. arr;
              })

(* ---- invariants ------------------------------------------------------ *)

(* The exported windows must tile [0, horizon]: start at 0, sit edge to
   edge, and the last edge must reach the horizon.  Tolerance 1e-6
   relative to the horizon (absolute when the horizon is sub-second). *)
let check_tiling t ~horizon name =
  let tol = 1e-6 *. Float.max 1. horizon in
  match points t ~horizon name with
  | [] -> Error (Printf.sprintf "series %S has no windows" name)
  | first :: _ as pts ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
            if Float.abs (b.t0 -. a.t1) > tol then
              Error
                (Printf.sprintf "series %S: gap between windows at %g..%g" name
                   a.t1 b.t0)
            else if a.t1 -. a.t0 -. t.width > tol then
              Error (Printf.sprintf "series %S: window width drift at %g" name a.t0)
            else walk rest
        | [ last ] ->
            if last.t1 +. tol < horizon then
              Error
                (Printf.sprintf
                   "series %S: windows end at %g, short of horizon %g" name
                   last.t1 horizon)
            else Ok ()
        | [] -> Ok ()
      in
      if Float.abs first.t0 > tol then
        Error (Printf.sprintf "series %S: first window starts at %g, not 0" name first.t0)
      else walk pts

(* ---- export ---------------------------------------------------------- *)

let point_json kind p =
  let f = Jsonx.number in
  let shared = [ ("t0", f p.t0); ("t1", f p.t1) ] in
  let fields =
    match kind with
    | Counter ->
        shared
        @ [ ("count", string_of_int p.count); ("sum", f p.sum);
            ("rate", f p.mean); ("total", f p.last) ]
    | Gauge ->
        shared
        @ [ ("mean", f p.mean); ("min", f p.vmin); ("max", f p.vmax);
            ("last", f p.last) ]
    | Histogram ->
        shared
        @ [ ("count", string_of_int p.count); ("sum", f p.sum);
            ("mean", f p.mean); ("p50", f p.p50); ("p99", f p.p99);
            ("max", f p.vmax) ]
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> Jsonx.quote k ^ ":" ^ v) fields) ^ "}"

let series_json t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> "null"
  | Some s ->
      let pts = points t ?horizon name in
      Printf.sprintf "{\"kind\":%s,\"help\":%s,\"points\":[%s]}"
        (Jsonx.quote (kind_name s.s_kind))
        (Jsonx.quote s.s_help)
        (String.concat "," (List.map (point_json s.s_kind) pts))

let to_json t ?horizon () =
  let entries =
    List.map
      (fun name -> Jsonx.quote name ^ ":" ^ series_json t ?horizon name)
      (names t)
  in
  Printf.sprintf "{\"window\":%s,\"series\":{%s}}"
    (Jsonx.number t.width)
    (String.concat "," entries)

(* One Perfetto counter track per series.  Gauges emit their raw change
   points (crisp steps in the UI); counters emit the per-window rate and
   histograms the per-window p99, both at window starts. *)
let chrome_counter_events t ?horizon ?(pid = 9) name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s -> (
      match s.s_kind with
      | Gauge ->
          let events = chronological s in
          List.map
            (fun (time, v) -> Chrome.counter_event ~pid ~name ~ts:time ~value:v ())
            events
      | Counter | Histogram ->
          List.map
            (fun p ->
              let v = match s.s_kind with Counter -> p.mean | _ -> p.p99 in
              Chrome.counter_event ~pid ~name ~ts:p.t0 ~value:v ())
            (points t ?horizon name))
