(* Windowed time series over *simulated* time.

   The metrics registry (Metrics) aggregates over a whole run; serving
   studies need "over time": queue depth, throughput, rolling latency
   percentiles.  A [t] is a set of named series, each cut into
   fixed-width windows laid edge to edge from t = 0.  Recording is cheap:
   an event is a time and a value appended to two unboxed float arrays,
   so a recorded series holds no object per event.  All
   aggregation happens at export, so the same recorded events can be
   replayed into any report.  Everything is deterministic: simulated
   timestamps in, pure folds out. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* The first [len] entries of [times] and [values] are the events, in
   recording order until [chronological] sorts them (a stable sort, so
   later recording appends the same order a sort of all events gives). *)
type series = {
  s_kind : kind;
  s_help : string;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
  mutable latest : float;  (* the latest time recorded; 0 when none *)
  mutable in_order : bool;  (* no event precedes the one recorded before it *)
}

type t = {
  width : float;
  tbl : (string, series) Hashtbl.t;
  mutable order : string list;  (* newest first *)
  (* The series [record] found last, by the name it was given: a run of
     records into one series hashes its name once. *)
  mutable last_name : string;
  mutable last : series option;
}

(* Windows past this many are refused: the makespan / 48 default needs
   48, and a window a thousand times finer than the makespan still fits. *)
let max_windows = 100_000

(* Windows needed to reach [h]: an exactly covered horizon needs no
   extra window.  A float, so that no count can overflow. *)
let horizon_windows ~window h = Float.ceil (h /. window *. (1. -. 1e-12))

let too_many ~window ~horizon =
  Printf.sprintf "window %g s would cut horizon %g s into more than %d windows" window
    horizon max_windows

let check_window ~window ~horizon =
  if horizon_windows ~window horizon > float_of_int max_windows then
    Error (too_many ~window ~horizon)
  else Ok ()

let default_window ~horizon = Float.max 1e-9 (horizon /. 48.)

let create ?(window = 1e-3) ?horizon () =
  if not (Float.is_finite window) || window <= 0. then
    invalid_arg "Timeseries.create: window must be positive";
  Option.iter
    (fun horizon -> Result.iter_error invalid_arg (check_window ~window ~horizon))
    horizon;
  { width = window; tbl = Hashtbl.create 16; order = []; last_name = ""; last = None }

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
      let s =
        { s_kind = kind; s_help = help; times = [||]; values = [||]; len = 0;
          latest = 0.; in_order = true }
      in
      Hashtbl.add t.tbl name s;
      t.order <- name :: t.order;
      s

let series_for t name kind help =
  match t.last with
  | Some s when t.last_name == name && s.s_kind = kind -> s
  | _ ->
      let s = find_or_add t name kind help in
      t.last_name <- name;
      t.last <- Some s;
      s

let record t name kind help ~time v =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg (Printf.sprintf "Timeseries: bad timestamp %g for %S" time name);
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Timeseries: non-finite value for %S" name);
  let s = series_for t name kind help in
  let n = s.len in
  if n = Array.length s.times then begin
    let grow a =
      let b = Array.make (max 16 (2 * n)) 0. in
      Array.blit a 0 b 0 n;
      b
    in
    s.times <- grow s.times;
    s.values <- grow s.values
  end;
  if n > 0 && s.times.(n - 1) > time then s.in_order <- false;
  s.times.(n) <- time;
  s.values.(n) <- v;
  s.len <- n + 1;
  if time > s.latest then s.latest <- time

let add t ?(help = "") name ~time by = record t name Counter help ~time by
let set t ?(help = "") name ~time v = record t name Gauge help ~time v
let observe t ?(help = "") name ~time v = record t name Histogram help ~time v

let names t = List.rev t.order
let kind_of t name = Option.map (fun s -> s.s_kind) (Hashtbl.find_opt t.tbl name)
let help_of t name = Option.map (fun s -> s.s_help) (Hashtbl.find_opt t.tbl name)
let events_recorded t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.len | None -> 0

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

(* Put a series' events in time order, same-time events in recording
   order.  Recorders mostly emit in time order, so the stable sort runs
   only when the recording order is not already chronological. *)
let chronological s =
  if not s.in_order then begin
    let perm = Array.init s.len Fun.id in
    Array.stable_sort (fun i j -> Float.compare s.times.(i) s.times.(j)) perm;
    s.times <- Array.map (fun i -> s.times.(i)) perm;
    s.values <- Array.map (fun i -> s.values.(i)) perm;
    s.in_order <- true
  end

(* Half-open windows [i*w, (i+1)*w): a sample landing exactly on an edge
   belongs to the window the edge *opens*. *)
let index t time = int_of_float (Float.floor (time /. t.width))

(* Edge [i]: window [i] spans [edge i, edge (i + 1)). *)
let edge t i = float_of_int i *. t.width

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

(* Total windows needed to cover every recorded sample and the horizon,
   or the error for more than [max_windows].  A sample exactly on edge
   k*w opens window k, so coverage must extend one past its index; an
   exactly-covered horizon must not. *)
let total_windows t ?horizon s =
  let covering = if s.len = 0 then 0. else Float.floor (s.latest /. t.width) +. 1. in
  let for_horizon =
    match horizon with None -> 0. | Some h -> horizon_windows ~window:t.width h
  in
  if Float.max for_horizon covering > float_of_int max_windows then
    Error
      (too_many ~window:t.width
         ~horizon:(Float.max s.latest (Option.value horizon ~default:0.)))
  else Ok (max 1 (max (int_of_float for_horizon) (int_of_float covering)))

let total_windows_exn t ?horizon s =
  match total_windows t ?horizon s with Ok n -> n | Error m -> invalid_arg m

let n_windows t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> 0
  | Some s -> total_windows_exn t ?horizon s

(* Each window folds its run of the chronological events, which starts
   where the previous window's run ended. *)
let points t ?horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s ->
      let n = total_windows_exn t ?horizon s in
      chronological s;
      let times = s.times and values = s.values in
      (* carried state across windows *)
      let gauge_v = ref 0. (* gauge value entering the window *)
      and cum = ref 0. (* counter cumulative total *)
      and last_sample = ref 0. in
      let next = ref 0 and acc = ref [] in
      for i = 0 to n - 1 do
        let t0 = edge t i and t1 = edge t (i + 1) in
        let lo = !next in
        while !next < s.len && index t times.(!next) <= i do
          incr next
        done;
        let hi = !next in
        let count = hi - lo in
        let p =
          match s.s_kind with
          | Counter ->
              let sum = ref 0. and vmin = ref 0. and vmax = ref 0. in
              for k = lo to hi - 1 do
                sum := !sum +. values.(k);
                vmin := Float.min !vmin values.(k);
                vmax := Float.max !vmax values.(k)
              done;
              cum := !cum +. !sum;
              {
                t0; t1; count; sum = !sum;
                mean = !sum /. t.width;
                vmin = !vmin; vmax = !vmax;
                last = !cum; p50 = 0.; p99 = 0.;
              }
          | Gauge ->
              (* integrate the piecewise-constant value over [t0, t1) *)
              let enter = !gauge_v in
              let integral = ref 0. and v = ref enter and tprev = ref t0 in
              let vmin = ref enter and vmax = ref enter in
              for k = lo to hi - 1 do
                integral := !integral +. (!v *. (times.(k) -. !tprev));
                v := values.(k);
                tprev := times.(k);
                vmin := Float.min !vmin values.(k);
                vmax := Float.max !vmax values.(k)
              done;
              let integral = !integral +. (!v *. (t1 -. !tprev)) in
              gauge_v := !v;
              {
                t0; t1; count;
                sum = integral;
                mean = integral /. t.width;
                vmin = !vmin; vmax = !vmax;
                last = !v; p50 = 0.; p99 = 0.;
              }
          | Histogram ->
              let sum = ref 0. in
              for k = lo to hi - 1 do
                sum := !sum +. values.(k)
              done;
              let arr = Array.sub values lo count in
              Array.sort Float.compare arr;
              if count > 0 then last_sample := values.(hi - 1);
              {
                t0; t1; count; sum = !sum;
                mean = (if count = 0 then 0. else !sum /. float_of_int count);
                vmin = (if count = 0 then 0. else arr.(0));
                vmax = (if count = 0 then 0. else arr.(count - 1));
                last = !last_sample;
                p50 = percentile 50. arr;
                p99 = percentile 99. arr;
              }
        in
        acc := p :: !acc
      done;
      List.rev !acc

(* ---- invariants ------------------------------------------------------ *)

(* The exported windows must tile [0, horizon]: start at 0, sit edge to
   edge, and the last edge must reach the horizon.  Tolerance 1e-6
   relative to the horizon (absolute when the horizon is sub-second).
   [points] computes every window's edges from its index and the width
   alone, so the check walks those edges, not the events. *)
let check_tiling t ~horizon name =
  match Hashtbl.find_opt t.tbl name with
  | None -> Error (Printf.sprintf "series %S has no windows" name)
  | Some s -> (
      match total_windows t ~horizon s with
      | Error m -> Error (Printf.sprintf "series %S: %s" name m)
      | Ok n ->
          let tol = 1e-6 *. Float.max 1. horizon in
          let rec walk i =
            let t0 = edge t i and t1 = edge t (i + 1) in
            if i = n - 1 then
              if t1 +. tol < horizon then
                Error
                  (Printf.sprintf "series %S: windows end at %g, short of horizon %g"
                     name t1 horizon)
              else Ok ()
            else
              let next_t0 = edge t (i + 1) in
              if Float.abs (next_t0 -. t1) > tol then
                Error
                  (Printf.sprintf "series %S: gap between windows at %g..%g" name t1
                     next_t0)
              else if t1 -. t0 -. t.width > tol then
                Error (Printf.sprintf "series %S: window width drift at %g" name t0)
              else walk (i + 1)
          in
          if Float.abs (edge t 0) > tol then
            Error
              (Printf.sprintf "series %S: first window starts at %g, not 0" name
                 (edge t 0))
          else walk 0)

let check_all t ~horizon =
  List.fold_left
    (fun acc name -> Result.bind acc (fun () -> check_tiling t ~horizon name))
    (Ok ()) (names t)

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
  Jsonx.obj (List.map (fun (k, v) -> Jsonx.field k v) fields)

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
          chronological s;
          List.init s.len (fun k ->
              Chrome.counter_event ~pid ~name ~ts:s.times.(k) ~value:s.values.(k) ())
      | Counter | Histogram ->
          List.map
            (fun p ->
              let v = match s.s_kind with Counter -> p.mean | _ -> p.p99 in
              Chrome.counter_event ~pid ~name ~ts:p.t0 ~value:v ())
            (points t ?horizon name))

let counter_tracks t ~horizon ?pid () =
  List.concat_map (fun name -> chrome_counter_events t ~horizon ?pid name) (names t)
