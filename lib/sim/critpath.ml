type kind =
  | Preload_issue
  | Hbm_read
  | Preload_deliver
  | Distribute
  | Tile_compute
  | Exchange
  | Sched_gap

let kind_name = function
  | Preload_issue -> "preload-issue"
  | Hbm_read -> "hbm-read"
  | Preload_deliver -> "preload-deliver"
  | Distribute -> "distribute"
  | Tile_compute -> "compute"
  | Exchange -> "exchange"
  | Sched_gap -> "sched-gap"

type event = {
  id : int;
  op : int;
  kind : kind;
  t_start : float;
  t_end : float;
  parent : int option;
  deps : int list;
  port_wait : float;
}

type resource = Hbm | Interconnect | Compute | Port | Wait

let resource_name = function
  | Hbm -> "hbm"
  | Interconnect -> "interconnect"
  | Compute -> "compute"
  | Port -> "port"
  | Wait -> "wait"

let all_resources = [ Hbm; Interconnect; Compute; Port; Wait ]

type segment = {
  s_op : int;
  s_kind : kind;
  s_res : resource;
  s_start : float;
  s_dur : float;
}

type summary = {
  total : float;
  events : event array;
  crit_ids : int list;
  segments : segment list;
  slack : float array;
  op_slack : float array;
  op_crit : float array;
  resource_seconds : (resource * float) list;
}

let dur e = e.t_end -. e.t_start

(* The terminal event: latest completion, ties broken toward the event
   issued last (the final exchange of the program). *)
let terminal events =
  let best = ref 0 in
  Array.iter
    (fun e -> if e.t_end >= events.(!best).t_end then best := e.id)
    events;
  !best

(* Classified sub-segments of one event, in time order.  Queuing is
   booked at the head of a transfer (it waits, then the bytes move), so
   the port share leads the interconnect share.  The split follows the
   Perfcore/Analyze convention: only distribution/exchange queuing is
   port time; preload delivery beyond the HBM floor is interconnect even
   when part of it queued behind an earlier delivery. *)
let classify e =
  let d = dur e in
  if d <= 0. then []
  else
    match e.kind with
    | Hbm_read -> [ (Hbm, e.t_start, d) ]
    | Preload_deliver -> [ (Interconnect, e.t_start, d) ]
    | Preload_issue | Sched_gap -> [ (Wait, e.t_start, d) ]
    | Tile_compute -> [ (Compute, e.t_start, d) ]
    | Distribute | Exchange ->
        let p = Float.min d (Float.max 0. e.port_wait) in
        List.filter
          (fun (_, _, d) -> d > 0.)
          [ (Port, e.t_start, p); (Interconnect, e.t_start +. p, d -. p) ]

(* Dependency-path reachability: is there a chain of gating edges from
   [src] to [dst]?  Deps carry smaller ids than the events they gate, so
   one forward sweep over [src..dst] settles it — the static verifier's
   cross-check uses this to confirm that every flagged race is a pair
   the simulated run also leaves unordered. *)
let reaches events ~src ~dst =
  let n = Array.length events in
  if src < 0 || dst < 0 || src >= n || dst >= n then false
  else if src = dst then true
  else if src > dst then false
  else begin
    let reached = Array.make (dst - src + 1) false in
    reached.(0) <- true;
    for i = src + 1 to dst do
      if
        List.exists
          (fun d -> d >= src && d < i && reached.(d - src))
          events.(i).deps
      then reached.(i - src) <- true
    done;
    reached.(dst - src)
  end

let find_event events ~op ~kind =
  let found = ref None in
  Array.iter
    (fun e -> if !found = None && e.op = op && e.kind = kind then found := Some e.id)
    events;
  !found

(* Latest-finish times over the full dependency DAG (classic CPM
   backward pass).  Deps always carry smaller ids than the events they
   gate, so reverse id order is a reverse topological order. *)
let slack_of events total =
  let n = Array.length events in
  let lf = Array.make n total in
  for i = n - 1 downto 0 do
    let e = events.(i) in
    let latest_start = lf.(i) -. dur e in
    List.iter (fun d -> if latest_start < lf.(d) then lf.(d) <- latest_start) e.deps
  done;
  Array.init n (fun i -> lf.(i) -. events.(i).t_end)

let extract events =
  if Array.length events = 0 then invalid_arg "Critpath.extract: no events";
  let last = terminal events in
  let total = events.(last).t_end in
  (* Backward causal walk.  By construction a child starts exactly when
     its binding parent ends; a positive gap (defensive) becomes an
     explicit scheduler-wait segment so the path still tiles [0, total]. *)
  let crit = ref [] and segs = ref [] in
  let gap ~t_start ~t_end =
    if t_end -. t_start > 0. then
      segs :=
        { s_op = -1; s_kind = Sched_gap; s_res = Wait; s_start = t_start;
          s_dur = t_end -. t_start }
        :: !segs
  in
  let rec walk id =
    let e = events.(id) in
    crit := id :: !crit;
    segs :=
      List.map
        (fun (res, s_start, s_dur) ->
          { s_op = e.op; s_kind = e.kind; s_res = res; s_start; s_dur })
        (classify e)
      @ !segs;
    match e.parent with
    | None -> gap ~t_start:0. ~t_end:e.t_start
    | Some p ->
        gap ~t_start:events.(p).t_end ~t_end:e.t_start;
        walk p
  in
  walk last;
  let segments = List.sort (fun a b -> compare a.s_start b.s_start) !segs in
  let slack = slack_of events total in
  let ops = 1 + Array.fold_left (fun a e -> max a e.op) 0 events in
  let op_slack = Array.make ops infinity in
  Array.iter
    (fun e -> if slack.(e.id) < op_slack.(e.op) then op_slack.(e.op) <- slack.(e.id))
    events;
  let op_crit = Array.make ops 0. in
  List.iter
    (fun s -> if s.s_op >= 0 then op_crit.(s.s_op) <- op_crit.(s.s_op) +. s.s_dur)
    segments;
  let resource_seconds =
    List.map
      (fun res ->
        ( res,
          List.fold_left
            (fun a s -> if s.s_res = res then a +. s.s_dur else a)
            0. segments ))
      all_resources
  in
  { total; events; crit_ids = !crit; segments; slack; op_slack; op_crit;
    resource_seconds }

let check events ~total =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = Array.length events in
  if n = 0 then err "no events recorded"
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None then
          if e.id <> i then bad := Some (err "event %d carries id %d" i e.id)
          else if e.t_end < e.t_start -. 1e-9 then
            bad := Some (err "event %d (%s) ends before it starts" i (kind_name e.kind))
          else
            match e.parent with
            | None ->
                if i <> 0 then
                  bad := Some (err "event %d (%s) has no causal parent" i (kind_name e.kind))
            | Some p ->
                if p < 0 || p >= i then
                  bad := Some (err "event %d: parent %d is not an earlier event" i p)
                else if not (List.mem p e.deps) then
                  bad := Some (err "event %d: parent %d missing from deps" i p)
                else if events.(p).t_end > e.t_start +. 1e-9 then
                  bad :=
                    Some
                      (err "event %d starts at %.9g before parent %d ends at %.9g" i
                         e.t_start p events.(p).t_end)
                else if
                  List.exists (fun d -> d < 0 || d >= i) e.deps
                then bad := Some (err "event %d: dep out of range" i))
      events;
    match !bad with
    | Some e -> e
    | None ->
        let s = extract events in
        let path_len = List.fold_left (fun a seg -> a +. seg.s_dur) 0. s.segments in
        if Elk_util.Stats.rel_err path_len total > 1e-6 then
          err "critical-path length %.9g != makespan %.9g (rel %.3g)" path_len total
            (Elk_util.Stats.rel_err path_len total)
        else if Elk_util.Stats.rel_err s.total total > 1e-6 then
          err "terminal event ends at %.9g, makespan is %.9g" s.total total
        else begin
          let neg = Array.exists (fun v -> v < -1e-9) s.slack in
          if neg then err "negative slack"
          else if Array.exists (fun v -> v < -1e-9) s.op_slack then
            err "negative operator slack"
          else Ok ()
        end
  end

let real_seconds s res = List.assoc res s.resource_seconds

let dominant s =
  (* Compute first so an all-zero path (or an exact tie) reads as
     compute-bound, matching Elk_analyze.Analyze.classify. *)
  let best, _ =
    List.fold_left
      (fun (br, bv) r ->
        let v = real_seconds s r in
        if v > bv then (r, v) else (br, bv))
      (Compute, real_seconds s Compute)
      [ Hbm; Interconnect; Port ]
  in
  best

let blame ?(top = 10) s =
  let per_op = Hashtbl.create 64 in
  List.iter
    (fun seg ->
      if seg.s_op >= 0 then begin
        let shares =
          match Hashtbl.find_opt per_op seg.s_op with
          | Some sh -> sh
          | None ->
              let sh = Hashtbl.create 4 in
              Hashtbl.add per_op seg.s_op sh;
              sh
        in
        let cur = Option.value ~default:0. (Hashtbl.find_opt shares seg.s_res) in
        Hashtbl.replace shares seg.s_res (cur +. seg.s_dur)
      end)
    s.segments;
  Hashtbl.fold
    (fun op shares acc ->
      let split =
        List.filter_map
          (fun res ->
            Option.map (fun v -> (res, v)) (Hashtbl.find_opt shares res))
          all_resources
      in
      (op, List.fold_left (fun a (_, v) -> a +. v) 0. split, split) :: acc)
    per_op []
  |> List.stable_sort (fun (oa, a, _) (ob, b, _) -> compare (b, oa) (a, ob))
  |> List.filteri (fun i _ -> i < top)

let us x = Printf.sprintf "%.1f" (x *. 1e6)
let pct_of x total = Printf.sprintf "%.1f%%" (100. *. x /. Float.max 1e-12 total)

let op_name graph i =
  if i < 0 then "-"
  else (Elk_model.Graph.get graph i).Elk_model.Graph.op.Elk_tensor.Opspec.name

let tables ?(top = 10) ?(top_segments = 12) graph s =
  let summary =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf
           "critical path: makespan %s us over %d segments (%d events recorded)"
           (us s.total) (List.length s.segments) (Array.length s.events))
      ~columns:[ "resource"; "critical us"; "share" ]
  in
  List.iter
    (fun res ->
      let t = real_seconds s res in
      Elk_util.Table.add_row summary [ resource_name res; us t; pct_of t s.total ])
    all_resources;
  let segs =
    Elk_util.Table.create
      ~title:(Printf.sprintf "top %d critical segments by duration" top_segments)
      ~columns:[ "op"; "name"; "kind"; "resource"; "start us"; "dur us"; "share" ]
  in
  List.stable_sort (fun a b -> compare (b.s_dur, a.s_start) (a.s_dur, b.s_start)) s.segments
  |> List.filteri (fun i _ -> i < top_segments)
  |> List.iter (fun seg ->
         Elk_util.Table.add_row segs
           [
             (if seg.s_op < 0 then "-" else string_of_int seg.s_op);
             op_name graph seg.s_op; kind_name seg.s_kind; resource_name seg.s_res;
             us seg.s_start; us seg.s_dur; pct_of seg.s_dur s.total;
           ])
  ;
  let bl =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf "top %d operators by critical-path time (blame), with slack" top)
      ~columns:
        [ "op"; "name"; "critical us"; "share"; "slack us"; "hbm"; "interconnect";
          "compute"; "port" ]
  in
  List.iter
    (fun (op, crit, split) ->
      let share res =
        us (Option.value ~default:0. (List.assoc_opt res split))
      in
      Elk_util.Table.add_row bl
        [
          string_of_int op; op_name graph op; us crit; pct_of crit s.total;
          us (if op < Array.length s.op_slack then s.op_slack.(op) else 0.);
          share Hbm; share Interconnect; share Compute; share Port;
        ])
    (blame ~top s);
  [ summary; segs; bl ]

let print ?top ?top_segments graph s =
  List.iter Elk_util.Table.print (tables ?top ?top_segments graph s)

let to_json graph s =
  let open Elk_obs in
  let open Jsonx in
  obj
    [
      field "total" (Jsonx.number s.total);
      field "events" (string_of_int (Array.length s.events));
      field "dominant" (Jsonx.quote (resource_name (dominant s)));
      field "resource_seconds"
        (obj
           (List.map
              (fun (res, v) -> field (resource_name res) (Jsonx.number v))
              s.resource_seconds));
      field "segments"
        (arr
           (List.map
              (fun seg ->
                obj
                  [
                    field "op" (string_of_int seg.s_op);
                    field "name" (Jsonx.quote (op_name graph seg.s_op));
                    field "kind" (Jsonx.quote (kind_name seg.s_kind));
                    field "resource" (Jsonx.quote (resource_name seg.s_res));
                    field "start" (Jsonx.number seg.s_start);
                    field "dur" (Jsonx.number seg.s_dur);
                  ])
              s.segments));
      field "ops"
        (arr
           (List.init (Array.length s.op_crit) (fun i ->
                obj
                  [
                    field "id" (string_of_int i);
                    field "name" (Jsonx.quote (op_name graph i));
                    field "critical" (Jsonx.number s.op_crit.(i));
                    field "slack"
                      (Jsonx.number
                         (if Float.is_finite s.op_slack.(i) then s.op_slack.(i) else 0.));
                  ])));
    ]
  ^ "\n"
