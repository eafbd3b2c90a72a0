type histogram = {
  bounds : float array;  (* ascending bucket upper bounds; +inf implicit *)
  buckets : int array;  (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type value = Counter of float ref | Gauge of float ref | Histogram of histogram
type metric = { help : string; v : value }

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Log-scale bucket bounds: powers of two from 1us to ~550s — 40 buckets
   plus overflow cover nine decades, enough for any timing this repo
   records, while byte/count-valued histograms still get a usable
   log-scale resolution. *)
let default_bounds =
  Array.init 40 (fun i -> 1e-6 *. Float.pow 2. (float_of_int i))

let new_histogram () =
  {
    bounds = default_bounds;
    buckets = Array.make (Array.length default_bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let find_or_add name help make =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = { help; v = make () } in
      Hashtbl.add registry name m;
      order := name :: !order;
      m

let incr ?(by = 1.) ?(help = "") name =
  if Control.is_enabled () then
    with_lock (fun () ->
        match (find_or_add name help (fun () -> Counter (ref 0.))).v with
        | Counter r -> r := !r +. by
        | _ -> ())

let set ?(help = "") name x =
  if Control.is_enabled () then
    with_lock (fun () ->
        match (find_or_add name help (fun () -> Gauge (ref 0.))).v with
        | Gauge r -> r := x
        | _ -> ())

let bucket_index bounds x =
  (* First bucket whose upper bound covers x; the last bucket is the
     overflow.  Linear scan: 41 entries, recording is not the hot path. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if x <= bounds.(i) then i else go (i + 1) in
  go 0

let observe ?(help = "") name x =
  if Control.is_enabled () then
    with_lock (fun () ->
        match (find_or_add name help (fun () -> Histogram (new_histogram ()))).v with
        | Histogram h ->
            let i = bucket_index h.bounds x in
            h.buckets.(i) <- h.buckets.(i) + 1;
            h.h_count <- h.h_count + 1;
            h.h_sum <- h.h_sum +. x;
            if x < h.h_min then h.h_min <- x;
            if x > h.h_max then h.h_max <- x
        | _ -> ())

let time ?help name f =
  if not (Control.is_enabled ()) then f ()
  else begin
    let t0 = Control.now () in
    Fun.protect ~finally:(fun () -> observe ?help name (Control.now () -. t0)) f
  end

let find name = with_lock (fun () -> Hashtbl.find_opt registry name)

let counter_value name =
  match find name with Some { v = Counter r; _ } -> Some !r | _ -> None

let gauge_value name =
  match find name with Some { v = Gauge r; _ } -> Some !r | _ -> None

(* An empty histogram is reachable once reset_histogram exists (reuse
   across Serve runs): summary queries must degrade to zeros, never to
   the infinite sentinels or an exception. *)
let histogram_stats name =
  match find name with
  | Some { v = Histogram h; _ } ->
      if h.h_count = 0 then Some (0, 0., 0., 0.)
      else Some (h.h_count, h.h_sum, h.h_min, h.h_max)
  | _ -> None

let percentile name p =
  match find name with
  | Some { v = Histogram h; _ } when h.h_count = 0 -> Some 0.
  | Some { v = Histogram h; _ } ->
      let p = Float.max 0. (Float.min 100. p) in
      let target = p /. 100. *. float_of_int h.h_count in
      let n = Array.length h.bounds in
      let rec go i cum =
        if i > n then h.h_max
        else
          let c = h.buckets.(i) in
          if float_of_int (cum + c) >= target && c > 0 then begin
            (* Geometric interpolation between the bucket's bounds. *)
            let lo = if i = 0 then Float.max 1e-12 h.h_min else h.bounds.(i - 1) in
            let hi = if i = n then h.h_max else h.bounds.(i) in
            let lo = Float.max 1e-12 lo in
            let hi = Float.max lo hi in
            let frac =
              Float.max 0.
                (Float.min 1. ((target -. float_of_int cum) /. float_of_int c))
            in
            lo *. Float.pow (hi /. lo) frac
          end
          else go (i + 1) (cum + c)
      in
      let v = go 0 0 in
      Some (Float.max h.h_min (Float.min h.h_max v))
  | _ -> None

let registered () = List.rev !order

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let sanitize name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

let prom_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_prometheus () =
  let names = registered () in
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      match with_lock (fun () -> Hashtbl.find_opt registry name) with
      | None -> ()
      | Some m ->
          let pname = sanitize name in
          if m.help <> "" then
            Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" pname m.help);
          (match m.v with
          | Counter r ->
              Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" pname);
              Buffer.add_string b (Printf.sprintf "%s %s\n" pname (prom_num !r))
          | Gauge r ->
              Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" pname);
              Buffer.add_string b (Printf.sprintf "%s %s\n" pname (prom_num !r))
          | Histogram h ->
              Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.buckets.(i);
                  (* Only emit buckets up to the first empty tail to keep
                     the exposition compact. *)
                  if !cum > 0 || bound >= h.h_min then
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" pname bound !cum))
                h.bounds;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.h_count);
              Buffer.add_string b
                (Printf.sprintf "%s_sum %s\n" pname (prom_num h.h_sum));
              Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname h.h_count)))
    names;
  Buffer.contents b

let counters () =
  List.filter_map
    (fun name ->
      match counter_value name with Some v -> Some (name, v) | None -> None)
    (registered ())

let to_json () =
  let names = registered () in
  let kind p = List.filter (fun n -> p n) names in
  let is_counter n = counter_value n <> None in
  let is_gauge n = gauge_value n <> None in
  let is_histogram n = histogram_stats n <> None in
  let open Jsonx in
  let counters_json =
    List.map
      (fun n -> field n (number (Option.get (counter_value n))))
      (kind is_counter)
  in
  let gauges_json =
    List.map (fun n -> field n (number (Option.get (gauge_value n)))) (kind is_gauge)
  in
  let hist_json =
    List.map
      (fun n ->
        let count, sum, mn, mx = Option.get (histogram_stats n) in
        let pct p = match percentile n p with Some v -> number v | None -> "null" in
        field n
          (obj
             [
               field "count" (string_of_int count);
               field "sum" (number sum);
               field "min" (number mn);
               field "max" (number mx);
               field "p50" (pct 50.);
               field "p90" (pct 90.);
               field "p99" (pct 99.);
             ]))
      (kind is_histogram)
  in
  obj
    [
      field "counters" (obj counters_json);
      field "gauges" (obj gauges_json);
      field "histograms" (obj hist_json);
    ]
  ^ "\n"

let reset_histogram name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { v = Histogram h; _ } ->
          Array.fill h.buckets 0 (Array.length h.buckets) 0;
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- Float.infinity;
          h.h_max <- Float.neg_infinity
      | _ -> ())

let reset () =
  with_lock (fun () ->
      Hashtbl.reset registry;
      order := [])
