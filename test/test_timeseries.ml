(* Timeseries: half-open window semantics, tiling invariants, per-kind
   aggregation, the window cap.  The window-edge and tiling cases are
   the acceptance checks for the serving time series: a sample exactly
   on a window edge must land in the window the edge opens, and the
   exported windows must tile [0, horizon] with no gaps. *)

module T = Elk_obs.Timeseries

let feq = Alcotest.(check (float 1e-9))

let test_edge_sample_opens_next_window () =
  (* Half-open [i, i+1): a sample exactly at t = 1.0 belongs to window 1,
     not window 0. *)
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:1.0 7.;
  let pts = T.points ts ~horizon:2.0 "c" in
  Alcotest.(check int) "two windows" 2 (List.length pts);
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 in
  Alcotest.(check int) "edge sample not in window 0" 0 w0.T.count;
  Alcotest.(check int) "edge sample in window 1" 1 w1.T.count;
  feq "w1 sum" 7. w1.T.sum

let test_edge_sample_extends_coverage () =
  (* A sample on the horizon's closing edge opens one more window: the
     tiling grows rather than dropping the sample. *)
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:2.0 1.;
  Alcotest.(check int) "three windows" 3 (T.n_windows ts ~horizon:2.0 "c");
  match T.check_tiling ts ~horizon:2.0 "c" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_exact_horizon_no_extra_window () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 1.;
  Alcotest.(check int) "exactly covered" 10 (T.n_windows ts ~horizon:10.0 "c")

let test_tiling () =
  let ts = T.create ~window:0.25 () in
  T.set ts "g" ~time:0. 1.;
  T.set ts "g" ~time:2.5 3.;
  (match T.check_tiling ts ~horizon:10. "g" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let pts = T.points ts ~horizon:10. "g" in
  Alcotest.(check int) "40 windows" 40 (List.length pts);
  feq "starts at 0" 0. (List.hd pts).T.t0;
  feq "reaches horizon" 10. (List.nth pts 39).T.t1;
  List.iteri
    (fun i p ->
      feq (Printf.sprintf "window %d start" i) (0.25 *. float_of_int i) p.T.t0;
      feq (Printf.sprintf "window %d width" i) 0.25 (p.T.t1 -. p.T.t0))
    pts;
  (match T.check_tiling ts ~horizon:10. "missing" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown series should not tile")

let test_counter_semantics () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 2.;
  T.add ts "c" ~time:0.7 3.;
  T.add ts "c" ~time:1.2 5.;
  let pts = T.points ts ~horizon:3.0 "c" in
  Alcotest.(check int) "windows" 3 (List.length pts);
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 and w2 = List.nth pts 2 in
  feq "w0 sum" 5. w0.T.sum;
  feq "w0 rate" 5. w0.T.mean;
  feq "w0 running total" 5. w0.T.last;
  feq "w1 running total" 10. w1.T.last;
  Alcotest.(check int) "w2 empty" 0 w2.T.count;
  feq "w2 rate 0" 0. w2.T.mean;
  feq "w2 keeps total" 10. w2.T.last

let test_gauge_carry_forward () =
  let ts = T.create ~window:1.0 () in
  T.set ts "g" ~time:0.5 4.;
  let pts = T.points ts ~horizon:3.0 "g" in
  let w0 = List.nth pts 0 and w1 = List.nth pts 1 in
  (* value 0 for the first half of window 0, then 4: time-weighted mean 2 *)
  feq "w0 time-weighted mean" 2. w0.T.mean;
  feq "w0 min includes carry-in" 0. w0.T.vmin;
  feq "w0 max" 4. w0.T.vmax;
  feq "w0 last" 4. w0.T.last;
  (* empty window: the gauge holds its value *)
  Alcotest.(check int) "w1 no events" 0 w1.T.count;
  feq "w1 carried mean" 4. w1.T.mean;
  feq "w1 carried last" 4. w1.T.last

let test_histogram_percentiles () =
  let ts = T.create ~window:1.0 () in
  for i = 1 to 100 do
    T.observe ts "h" ~time:0.5 (float_of_int i)
  done;
  let w0 = List.hd (T.points ts "h") in
  Alcotest.(check int) "count" 100 w0.T.count;
  feq "p50 interpolated" 50.5 w0.T.p50;
  feq "p99 interpolated" 99.01 w0.T.p99;
  feq "max" 100. w0.T.vmax;
  feq "mean" 50.5 w0.T.mean

let test_kind_clash_and_bad_inputs () =
  let ts = T.create () in
  T.add ts "x" ~time:0. 1.;
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> T.set ts "x" ~time:0. 1.);
  bad (fun () -> T.add ts "x" ~time:(-1.) 1.);
  bad (fun () -> T.add ts "x" ~time:0. Float.nan);
  bad (fun () -> ignore (T.create ~window:0. ()))

let test_json_and_chrome_export () =
  let ts = T.create ~window:1.0 () in
  T.add ts "c" ~time:0.5 2.;
  T.set ts "g" ~time:0.25 1.;
  T.observe ts "h" ~time:0.75 0.5;
  let j = T.to_json ts ~horizon:2.0 () in
  (match Elk_obs.Jsonx.parse j with
  | Ok v ->
      (match Elk_obs.Jsonx.member "series" v with
      | Some (Elk_obs.Jsonx.Obj kvs) ->
          Alcotest.(check (list string)) "all series exported" [ "c"; "g"; "h" ]
            (List.sort compare (List.map fst kvs))
      | _ -> Alcotest.fail "series object missing")
  | Error m -> Alcotest.fail ("invalid JSON: " ^ m));
  (* gauges: one counter event per change point; counters: one per window *)
  Alcotest.(check int) "gauge change points" 1
    (List.length (T.chrome_counter_events ts ~horizon:2.0 "g"));
  Alcotest.(check int) "counter per window" 2
    (List.length (T.chrome_counter_events ts ~horizon:2.0 "c"));
  List.iter
    (fun e ->
      match Elk_obs.Jsonx.parse e with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("invalid chrome event: " ^ m))
    (T.chrome_counter_events ts ~horizon:2.0 "h")

(* A gauge change exactly on a window edge: the old value carries fully
   through the earlier window, the new value holds from the edge — so
   the boundary window's time-weighted mean sees only the new value. *)
let test_gauge_set_at_window_boundary () =
  let ts = T.create ~window:1.0 () in
  T.set ts "g" ~time:0.0 2.;
  T.set ts "g" ~time:2.0 10.;
  let pts = T.points ts ~horizon:3.0 "g" in
  Alcotest.(check int) "three windows" 3 (List.length pts);
  let w1 = List.nth pts 1 and w2 = List.nth pts 2 in
  (* window [1,2): entirely the carried-in old value *)
  feq "carry-in mean" 2. w1.T.mean;
  feq "carry-in last" 2. w1.T.last;
  Alcotest.(check int) "no event in carried window" 0 w1.T.count;
  (* window [2,3): the edge change belongs to the window it opens *)
  Alcotest.(check int) "edge change in window 2" 1 w2.T.count;
  feq "boundary mean is all new value" 10. w2.T.mean;
  feq "boundary min includes carry" 2. w2.T.vmin;
  feq "boundary last" 10. w2.T.last

(* Counter-track export of a series that was never recorded: an empty
   list, not a crash and not a spurious zero track. *)
let test_chrome_counter_events_empty_series () =
  let ts = T.create ~window:1.0 () in
  T.set ts "present" ~time:0.5 1.;
  Alcotest.(check (list string)) "unknown series exports nothing" []
    (T.chrome_counter_events ts ~horizon:2.0 "absent");
  Alcotest.(check bool) "known series exports" true
    (T.chrome_counter_events ts ~horizon:2.0 "present" <> [])

(* The window cap: a window that would cut the horizon into more than
   [max_windows] windows is refused at creation, naming both; a series
   whose events reach past the cap refuses to export, and its tiling
   check fails instead of materializing the windows. *)
let test_window_cap () =
  let cap = float_of_int T.max_windows in
  Alcotest.(check bool) "exactly the cap fits" true
    (T.check_window ~window:1.0 ~horizon:cap = Ok ());
  (match T.check_window ~window:1e-300 ~horizon:1e-4 with
  | Error m ->
      Alcotest.(check string) "names window and horizon"
        "window 1e-300 s would cut horizon 0.0001 s into more than 100000 windows" m
  | Ok () -> Alcotest.fail "1e296 windows accepted");
  Alcotest.check_raises "create refuses"
    (Invalid_argument "window 1e-300 s would cut horizon 0.0001 s into more than 100000 windows")
    (fun () -> ignore (T.create ~window:1e-300 ~horizon:1e-4 ()));
  let ts = T.create ~window:1.0 ~horizon:cap () in
  T.set ts "g" ~time:(2. *. cap) 1.;
  (match T.check_tiling ts ~horizon:cap "g" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an event past the cap tiled");
  match T.points ts "g" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "points exported past the cap"

(* ---- the list-based reference ------------------------------------------ *)

(* The list-based implementation Timeseries had before its events moved
   into unboxed arrays, kept as the oracle: events are (time, value)
   pairs, [points] buckets and folds every event into a list per window,
   [check_tiling] walks the exported windows, and a gauge exports its
   change points. *)
module Ref = struct
  let chronological events =
    let rec in_order = function
      | (a, _) :: ((b, _) :: _ as rest) -> Float.compare a b <= 0 && in_order rest
      | _ -> true
    in
    if in_order events then events
    else List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events

  let index w time = int_of_float (Float.floor (time /. w))

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

  let total_windows w ?horizon events =
    let latest = List.fold_left (fun a (time, _) -> Float.max a time) 0. events in
    let covering = if events = [] then 0 else index w latest + 1 in
    let for_horizon =
      match horizon with
      | None -> 0
      | Some h -> int_of_float (Float.ceil (h /. w *. (1. -. 1e-12)))
    in
    max 1 (max for_horizon covering)

  (* [events] in recording order. *)
  let points kind w ?horizon events : T.point list =
    let n = total_windows w ?horizon events in
    let events = chronological events in
    let buckets = Array.make n [] and counts = Array.make n 0 in
    let gauge_v = ref 0. and cum = ref 0. and last_sample = ref 0. in
    List.iter
      (fun (time, v) ->
        let i = index w time in
        if i >= 0 && i < n then begin
          buckets.(i) <- (time, v) :: buckets.(i);
          counts.(i) <- counts.(i) + 1
        end)
      events;
    List.init n (fun i ->
        let t0 = float_of_int i *. w and t1 = float_of_int (i + 1) *. w in
        let evs = List.rev buckets.(i) in
        let vals = List.map snd evs in
        match kind with
        | T.Counter ->
            let sum = List.fold_left ( +. ) 0. vals in
            cum := !cum +. sum;
            { T.t0; t1; count = counts.(i); sum; mean = sum /. w;
              vmin = List.fold_left Float.min 0. vals;
              vmax = List.fold_left Float.max 0. vals;
              last = !cum; p50 = 0.; p99 = 0. }
        | T.Gauge ->
            let enter = !gauge_v in
            let integral, _, tprev =
              List.fold_left
                (fun (acc, v, tp) (time, v') -> (acc +. (v *. (time -. tp)), v', time))
                (0., enter, t0) evs
            in
            let v_end = match List.rev vals with v :: _ -> v | [] -> enter in
            let integral = integral +. (v_end *. (t1 -. tprev)) in
            gauge_v := v_end;
            { T.t0; t1; count = counts.(i); sum = integral; mean = integral /. w;
              vmin = List.fold_left Float.min enter vals;
              vmax = List.fold_left Float.max enter vals;
              last = v_end; p50 = 0.; p99 = 0. }
        | T.Histogram ->
            let sum = List.fold_left ( +. ) 0. vals in
            let arr = Array.of_list vals in
            Array.sort Float.compare arr;
            (match List.rev vals with v :: _ -> last_sample := v | [] -> ());
            { T.t0; t1; count = counts.(i); sum;
              mean = (if counts.(i) = 0 then 0. else sum /. float_of_int counts.(i));
              vmin = (if arr = [||] then 0. else arr.(0));
              vmax = (if arr = [||] then 0. else arr.(Array.length arr - 1));
              last = !last_sample;
              p50 = percentile 50. arr; p99 = percentile 99. arr })

  let check_tiling w ~horizon name (pts : T.point list) =
    let tol = 1e-6 *. Float.max 1. horizon in
    match pts with
    | [] -> Error (Printf.sprintf "series %S has no windows" name)
    | first :: _ ->
        let rec walk = function
          | (a : T.point) :: ((b : T.point) :: _ as rest) ->
              if Float.abs (b.T.t0 -. a.T.t1) > tol then
                Error
                  (Printf.sprintf "series %S: gap between windows at %g..%g" name a.T.t1
                     b.T.t0)
              else if a.T.t1 -. a.T.t0 -. w > tol then
                Error (Printf.sprintf "series %S: window width drift at %g" name a.T.t0)
              else walk rest
          | [ last ] ->
              if last.T.t1 +. tol < horizon then
                Error
                  (Printf.sprintf "series %S: windows end at %g, short of horizon %g" name
                     last.T.t1 horizon)
              else Ok ()
          | [] -> Ok ()
        in
        if Float.abs first.T.t0 > tol then
          Error
            (Printf.sprintf "series %S: first window starts at %g, not 0" name first.T.t0)
        else walk pts

  let point_json kind (p : T.point) =
    let f = Elk_obs.Jsonx.number in
    let shared = [ ("t0", f p.T.t0); ("t1", f p.T.t1) ] in
    let fields =
      match kind with
      | T.Counter ->
          shared
          @ [ ("count", string_of_int p.T.count); ("sum", f p.T.sum);
              ("rate", f p.T.mean); ("total", f p.T.last) ]
      | T.Gauge ->
          shared
          @ [ ("mean", f p.T.mean); ("min", f p.T.vmin); ("max", f p.T.vmax);
              ("last", f p.T.last) ]
      | T.Histogram ->
          shared
          @ [ ("count", string_of_int p.T.count); ("sum", f p.T.sum);
              ("mean", f p.T.mean); ("p50", f p.T.p50); ("p99", f p.T.p99);
              ("max", f p.T.vmax) ]
    in
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Elk_obs.Jsonx.quote k ^ ":" ^ v) fields)
    ^ "}"

  (* [series]: (name, kind, events in recording order), registration
     order. *)
  let to_json w ?horizon series =
    Printf.sprintf "{\"window\":%s,\"series\":{%s}}" (Elk_obs.Jsonx.number w)
      (String.concat ","
         (List.map
            (fun (name, kind, events) ->
              Elk_obs.Jsonx.quote name ^ ":"
              ^ Printf.sprintf "{\"kind\":%s,\"help\":%s,\"points\":[%s]}"
                  (Elk_obs.Jsonx.quote (T.kind_name kind))
                  (Elk_obs.Jsonx.quote "")
                  (String.concat ","
                     (List.map (point_json kind) (points kind w ?horizon events))))
            series))

  let chrome_counter_events w ?horizon ~pid name kind events =
    match kind with
    | T.Gauge ->
        List.map
          (fun (time, v) -> Elk_obs.Chrome.counter_event ~pid ~name ~ts:time ~value:v ())
          (chronological events)
    | T.Counter | T.Histogram ->
        List.map
          (fun (p : T.point) ->
            let v = match kind with T.Counter -> p.T.mean | _ -> p.T.p99 in
            Elk_obs.Chrome.counter_event ~pid ~name ~ts:p.T.t0 ~value:v ())
          (points kind w ?horizon events)
end

(* Random series of all three kinds, recorded interleaved into one [t]:
   times on window edges, between them and repeated, in time order or
   not; values of both signs, zeros included; a name sometimes passed as
   a fresh copy of the string.  The horizon sits on an edge, between
   edges, before the latest event, or is absent.  Every point field is
   compared by float bits, and the tiling verdict and message, the JSON
   and the counter tracks by string. *)
let qcheck_matches_reference =
  let open QCheck2.Gen in
  let kind = oneofl [ T.Counter; T.Gauge; T.Histogram ] in
  let time =
    oneof
      [
        map (fun k -> `Edge k) (int_bound 12);
        map2 (fun k f -> `Mid (k, f)) (int_bound 12) (float_range 0. 1.);
        oneofl [ `Edge 0; `Edge 3; `Mid (2, 0.5) ];
      ]
  in
  let value =
    oneof
      [ oneofl [ 0.; -0.; 1.; -2.; 0.5; 1e-9 ]; float_range (-1e3) 1e3;
        map float_of_int (int_range (-4) 4) ]
  in
  let event = triple (int_bound 2) time value in
  let horizon =
    oneof
      [
        pure `Absent; map (fun k -> `At_edge k) (int_range 1 14);
        map (fun k -> `Between k) (int_bound 14); pure `Before_latest;
      ]
  in
  let case =
    tup6 (oneofl [ 1.0; 0.25; 0.1; 1e-3; 3e-5 ]) (triple kind kind kind) bool
      (list_size (int_range 0 40) event) horizon bool
  in
  let print (w, _, sorted, evs, _, _) =
    Printf.sprintf "window %g, %d events%s" w (List.length evs)
      (if sorted then " (time order)" else "")
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:400 ~name:"timeseries: arrays equal the list-based reference"
       ~print case
  @@ fun (w, (k0, k1, k2), sorted, evs, hz, fresh) ->
      let when_ = function
        | `Edge k -> float_of_int k *. w
        | `Mid (k, f) -> (float_of_int k +. f) *. w
      in
      let evs = List.map (fun (s, t, v) -> (s, when_ t, v)) evs in
      let evs =
        if sorted then List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare a b) evs
        else evs
      in
      let kinds = [| k0; k1; k2 |] and names = [| "s0"; "s1"; "s2" |] in
      let ts = T.create ~window:w () in
      List.iteri
        (fun i (s, time, v) ->
          let name =
            if fresh && i mod 3 = 0 then String.init 2 (String.get names.(s)) else names.(s)
          in
          match kinds.(s) with
          | T.Counter -> T.add ts name ~time v
          | T.Gauge -> T.set ts name ~time v
          | T.Histogram -> T.observe ts name ~time v)
        evs;
      let latest = List.fold_left (fun a (_, t, _) -> Float.max a t) 0. evs in
      let horizon =
        match hz with
        | `Absent -> None
        | `At_edge k -> Some (float_of_int k *. w)
        | `Between k -> Some ((float_of_int k +. 0.37) *. w)
        | `Before_latest -> Some (latest /. 2.)
      in
      (* registration order: first recording of each series *)
      let series =
        List.fold_left
          (fun acc (s, _, _) -> if List.mem s acc then acc else acc @ [ s ])
          [] evs
        |> List.map (fun s ->
               ( names.(s), kinds.(s),
                 List.filter_map (fun (s', t, v) -> if s' = s then Some (t, v) else None) evs ))
      in
      let bits_equal (a : T.point) (b : T.point) =
        let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
        eq a.T.t0 b.T.t0 && eq a.T.t1 b.T.t1 && a.T.count = b.T.count && eq a.T.sum b.T.sum
        && eq a.T.mean b.T.mean && eq a.T.vmin b.T.vmin && eq a.T.vmax b.T.vmax
        && eq a.T.last b.T.last && eq a.T.p50 b.T.p50 && eq a.T.p99 b.T.p99
      in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      List.iter
        (fun (name, kind, events) ->
          let want = Ref.points kind w ?horizon events in
          let got = T.points ts ?horizon name in
          if List.length got <> List.length want then
            fail "%s: %d windows, reference %d" name (List.length got) (List.length want);
          List.iteri
            (fun i (g, r) ->
              if not (bits_equal g r) then fail "%s: window %d differs from the reference" name i)
            (List.combine got want);
          if T.n_windows ts ?horizon name <> List.length want then fail "%s: n_windows" name;
          (match horizon with
          | Some horizon ->
              let got = T.check_tiling ts ~horizon name
              and want = Ref.check_tiling w ~horizon name want in
              if got <> want then fail "%s: check_tiling differs from the reference" name
          | None -> ());
          if
            T.chrome_counter_events ts ?horizon ~pid:3 name
            <> Ref.chrome_counter_events w ?horizon ~pid:3 name kind events
          then fail "%s: counter events differ from the reference" name)
        series;
      if T.names ts <> List.map (fun (n, _, _) -> n) series then fail "registration order";
      T.to_json ts ?horizon () = Ref.to_json w ?horizon series
      || fail "to_json differs from the reference"

(* [check_all] answers for the first series in registration order that
   fails to tile (here: events too far past the horizon), not the first
   by name; [counter_tracks] is every series' counter track, in
   registration order. *)
let test_check_all_and_counter_tracks () =
  let ts = T.create ~window:1.0 () in
  T.set ts "z" ~time:0. 1.;
  T.add ts "c" ~time:2e6 1.;
  T.add ts "b" ~time:1e6 1.;
  T.observe ts "a" ~time:3. 2.;
  (match T.check_all ts ~horizon:10. with
  | Ok () -> Alcotest.fail "series c cannot tile [0, 10] in 1 s windows"
  | Error m ->
      Alcotest.(check (result unit string)) "the first failing series" (T.check_tiling ts ~horizon:10. "c")
        (Error m));
  let ok = T.create ~window:1.0 () in
  T.set ok "z" ~time:4. 1.;
  T.add ok "a" ~time:9.5 3.;
  Alcotest.(check (result unit string)) "all tile" (Ok ()) (T.check_all ok ~horizon:10.);
  let tracks = T.counter_tracks ok ~horizon:10. ~pid:3 () in
  Alcotest.(check (list string)) "registration order"
    (T.chrome_counter_events ok ~horizon:10. ~pid:3 "z"
    @ T.chrome_counter_events ok ~horizon:10. ~pid:3 "a")
    tracks;
  Alcotest.(check int) "one event per gauge change and per counter window" (1 + 10)
    (List.length tracks)

let suite =
  [
    Alcotest.test_case "edge sample opens next window" `Quick
      test_edge_sample_opens_next_window;
    Alcotest.test_case "edge sample extends coverage" `Quick
      test_edge_sample_extends_coverage;
    Alcotest.test_case "exact horizon no extra window" `Quick
      test_exact_horizon_no_extra_window;
    Alcotest.test_case "tiling" `Quick test_tiling;
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge carry forward" `Quick test_gauge_carry_forward;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "kind clash and bad inputs" `Quick
      test_kind_clash_and_bad_inputs;
    Alcotest.test_case "json and chrome export" `Quick test_json_and_chrome_export;
    Alcotest.test_case "gauge set at window boundary" `Quick
      test_gauge_set_at_window_boundary;
    Alcotest.test_case "counter export of empty series" `Quick
      test_chrome_counter_events_empty_series;
    Alcotest.test_case "window cap" `Quick test_window_cap;
    Alcotest.test_case "check_all and counter_tracks follow registration order" `Quick
      test_check_all_and_counter_tracks;
    qcheck_matches_reference;
  ]
