module Pc = Elk_sim.Perfcore

type resource = Hbm | Interconnect | Compute | Port

let resource_name = function
  | Hbm -> "hbm"
  | Interconnect -> "interconnect"
  | Compute -> "compute"
  | Port -> "port"

let all_resources = [ Hbm; Interconnect; Compute; Port ]

let attrib_of (a : Pc.op_attrib) = function
  | Hbm -> a.Pc.a_hbm
  | Interconnect -> a.Pc.a_interconnect
  | Compute -> a.Pc.a_compute
  | Port -> a.Pc.a_port

let classify (a : Pc.op_attrib) =
  (* Compute first so an operator with no attributed time (or an exact
     tie with compute) reads as compute-bound. *)
  let best, _ =
    List.fold_left
      (fun (br, bv) r ->
        let v = attrib_of a r in
        if v > bv then (r, v) else (br, bv))
      (Compute, attrib_of a Compute)
      [ Hbm; Interconnect; Port ]
  in
  best

type op_class = {
  op_id : int;
  op_name : string;
  dominant : resource;
  span : float;
  shares : (resource * float) list;
}

type core_row = { core : int; buckets : Pc.buckets }

type report = {
  total : float;
  imbalance : float;
  top_cores : core_row list;
  resource_totals : (resource * float) list;
  headroom : (resource * float) list;
  mix : (resource * int) list;
  ops : op_class array;
  hbm_peak : float;
  hbm_mean : float;
  noc_peak : float;
  noc_mean : float;
  series : Elk_sim.Sim.series;
}

let series_bins = 60

let analyze ?(top = 8) (s : Elk.Schedule.t) (r : Elk_sim.Sim.result) =
  let graph = s.Elk.Schedule.graph in
  let perf = r.Elk_sim.Sim.perf in
  let series = Elk_sim.Sim.series s r in
  let ops =
    Array.mapi
      (fun i a ->
        {
          op_id = i;
          op_name = (Elk_model.Graph.get graph i).Elk_model.Graph.op.Elk_tensor.Opspec.name;
          dominant = classify a;
          span = Pc.attrib_sum a;
          shares = List.map (fun res -> (res, attrib_of a res)) all_resources;
        })
      perf.Pc.per_op
  in
  let resource_totals =
    List.map
      (fun res ->
        ( res,
          Array.fold_left (fun acc a -> acc +. attrib_of a res) 0. perf.Pc.per_op ))
      all_resources
  in
  let headroom =
    List.map (fun (res, t) -> (res, Float.max 0. (r.Elk_sim.Sim.total -. t))) resource_totals
  in
  let mix =
    List.map
      (fun res ->
        (res, Array.fold_left (fun n o -> if o.dominant = res then n + 1 else n) 0 ops))
      all_resources
  in
  let rows =
    Array.to_list (Array.mapi (fun core buckets -> { core; buckets }) perf.Pc.per_core)
  in
  let top_cores =
    List.stable_sort
      (fun a b -> compare (Pc.busy b.buckets) (Pc.busy a.buckets))
      rows
    |> List.filteri (fun i _ -> i < top)
  in
  {
    total = r.Elk_sim.Sim.total;
    imbalance = Pc.imbalance perf;
    top_cores;
    resource_totals;
    headroom;
    mix;
    ops;
    hbm_peak = Elk_util.Series.peak_rate series.hbm ~n:series_bins;
    hbm_mean = Elk_util.Series.mean_rate series.hbm;
    noc_peak = Elk_util.Series.peak_rate series.noc ~n:series_bins;
    noc_mean = Elk_util.Series.mean_rate series.noc;
    series;
  }

(* ---- slack-aware what-if cross-check ------------------------------- *)

module Cp = Elk_sim.Critpath

let critpath_res = function
  | Hbm -> Cp.Hbm
  | Interconnect -> Cp.Interconnect
  | Compute -> Cp.Compute
  | Port -> Cp.Port

let chain_seconds (s : Cp.summary) res =
  try List.assoc (critpath_res res) s.Cp.resource_seconds with Not_found -> 0.

let slack_headroom rep (s : Cp.summary) =
  List.map
    (fun (res, h) ->
      let saving = Float.min rep.total (Float.max 0. (chain_seconds s res)) in
      (res, h, Float.max 0. (rep.total -. saving)))
    rep.headroom

let headroom_check rep (s : Cp.summary) =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let tol = 1e-6 *. Float.max 1e-12 rep.total in
  if Elk_util.Stats.rel_err rep.total s.Cp.total > 1e-6 then
    err "attribution total %.9g and critical-path total %.9g differ" rep.total
      s.Cp.total
  else begin
    let attributed res = List.assoc res rep.resource_totals in
    (* Chain compute/port time is a subset of what attribution books for
       those resources (every critical compute segment is some operator's
       compute_len, which attribution also counts), so the attribution
       what-if can never sit above the slack-aware estimate there.  A
       violation means one layer's classification drifted from the shared
       Perfcore convention. *)
    let subset_violation =
      List.find_opt
        (fun res -> chain_seconds s res > attributed res +. tol)
        [ Compute; Port ]
    in
    match subset_violation with
    | Some res ->
        err "chain %s %.9g exceeds attributed %s %.9g" (resource_name res)
          (chain_seconds s res) (resource_name res) (attributed res)
    | None -> (
        let bad =
          List.find_opt
            (fun (_, attrib_h, slack_h) ->
              (not (Float.is_finite attrib_h))
              || (not (Float.is_finite slack_h))
              || attrib_h < 0. || slack_h < 0.
              || slack_h > rep.total +. tol)
            (slack_headroom rep s)
        in
        match bad with
        | Some (res, attrib_h, slack_h) ->
            err "%s headroom out of range (attribution %.9g, slack-aware %.9g)"
              (resource_name res) attrib_h slack_h
        | None -> Ok ())
  end

let us x = Printf.sprintf "%.1f" (x *. 1e6)
let pct_of x total = Printf.sprintf "%.1f%%" (100. *. x /. Float.max 1e-12 total)
let gbps x = Printf.sprintf "%.2f" (x /. 1e9)

let tables ?(top_ops = 10) rep =
  let summary =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf
           "bottleneck summary: makespan %s us, load imbalance %.2fx (max/mean busy)"
           (us rep.total) rep.imbalance)
      ~columns:[ "resource"; "critical-path us"; "share"; "if infinite (us)"; "saved" ]
  in
  List.iter
    (fun res ->
      let t = List.assoc res rep.resource_totals in
      let h = List.assoc res rep.headroom in
      Elk_util.Table.add_row summary
        [
          resource_name res; us t; pct_of t rep.total; us h;
          pct_of (rep.total -. h) rep.total;
        ])
    all_resources;
  let bw =
    Elk_util.Table.create ~title:"bandwidth over time (binned)"
      ~columns:[ "series"; "mean GB/s"; "peak GB/s" ]
  in
  Elk_util.Table.add_row bw [ "HBM"; gbps rep.hbm_mean; gbps rep.hbm_peak ];
  Elk_util.Table.add_row bw [ "interconnect"; gbps rep.noc_mean; gbps rep.noc_peak ];
  let cores =
    Elk_util.Table.create
      ~title:(Printf.sprintf "top %d cores by busy time (us)" (List.length rep.top_cores))
      ~columns:[ "core"; "busy"; "compute"; "exchange"; "port"; "preload wait"; "idle"; "sum" ]
  in
  List.iter
    (fun { core; buckets = b } ->
      Elk_util.Table.add_row cores
        [
          string_of_int core; us (Pc.busy b); us b.Pc.compute; us b.Pc.exchange;
          us b.Pc.port; us b.Pc.preload_wait; us b.Pc.idle; us (Pc.bucket_sum b);
        ])
    rep.top_cores;
  let mix =
    Elk_util.Table.create ~title:"operator mix by dominant resource"
      ~columns:[ "dominant"; "ops"; "critical-path us"; "share" ]
  in
  List.iter
    (fun res ->
      let n = List.assoc res rep.mix in
      let t = List.assoc res rep.resource_totals in
      Elk_util.Table.add_row mix
        [ resource_name res; string_of_int n; us t; pct_of t rep.total ])
    all_resources;
  let hot =
    Elk_util.Table.create
      ~title:(Printf.sprintf "top %d operators by critical-path span" top_ops)
      ~columns:[ "op"; "name"; "dominant"; "span us"; "hbm"; "interconnect"; "compute"; "port" ]
  in
  let by_span =
    List.stable_sort (fun a b -> compare b.span a.span) (Array.to_list rep.ops)
    |> List.filteri (fun i _ -> i < top_ops)
  in
  List.iter
    (fun o ->
      let share res = pct_of (List.assoc res o.shares) (Float.max 1e-12 o.span) in
      Elk_util.Table.add_row hot
        [
          string_of_int o.op_id; o.op_name; resource_name o.dominant; us o.span;
          share Hbm; share Interconnect; share Compute; share Port;
        ])
    by_span;
  [ summary; bw; cores; mix; hot ]

let print ?top_ops rep = List.iter Elk_util.Table.print (tables ?top_ops rep)

let to_json rep =
  let open Elk_obs in
  let open Jsonx in
  let res_obj f =
    obj (List.map (fun res -> field (resource_name res) (f res)) all_resources)
  in
  let buckets_fields (b : Pc.buckets) =
    [
      field "compute" (Jsonx.number b.Pc.compute);
      field "exchange" (Jsonx.number b.Pc.exchange);
      field "preload_wait" (Jsonx.number b.Pc.preload_wait);
      field "port" (Jsonx.number b.Pc.port);
      field "idle" (Jsonx.number b.Pc.idle);
      field "busy" (Jsonx.number (Pc.busy b));
    ]
  in
  obj
    [
      field "total" (Jsonx.number rep.total);
      field "imbalance" (Jsonx.number rep.imbalance);
      field "resource_seconds"
        (res_obj (fun res -> Jsonx.number (List.assoc res rep.resource_totals)));
      field "headroom_latency"
        (res_obj (fun res -> Jsonx.number (List.assoc res rep.headroom)));
      field "mix" (res_obj (fun res -> string_of_int (List.assoc res rep.mix)));
      field "top_cores"
        (arr
           (List.map
              (fun { core; buckets } ->
                obj (field "core" (string_of_int core) :: buckets_fields buckets))
              rep.top_cores));
      field "ops"
        (arr
           (Array.to_list rep.ops
           |> List.map (fun o ->
                  obj
                    ([
                       field "id" (string_of_int o.op_id);
                       field "name" (Jsonx.quote o.op_name);
                       field "dominant" (Jsonx.quote (resource_name o.dominant));
                       field "span" (Jsonx.number o.span);
                     ]
                    @ List.map
                        (fun (res, v) -> field (resource_name res) (Jsonx.number v))
                        o.shares))));
      field "bandwidth"
        (obj
           [
             field "hbm_mean" (Jsonx.number rep.hbm_mean);
             field "hbm_peak" (Jsonx.number rep.hbm_peak);
             field "noc_mean" (Jsonx.number rep.noc_mean);
             field "noc_peak" (Jsonx.number rep.noc_peak);
           ]);
    ]
  ^ "\n"

let chrome_counter_events ?(bins = series_bins) rep =
  let scale_rate s =
    (* GB/s reads better than B/s in the Perfetto counter axis. *)
    Array.to_list (Elk_util.Series.bins s ~n:bins)
    |> List.map (fun (t, rate) -> (t, rate /. 1e9))
  in
  let track name pts =
    List.map (fun (t, v) -> Elk_obs.Chrome.counter_event ~name ~ts:t ~value:v ()) pts
  in
  track "HBM bandwidth (GB/s)" (scale_rate rep.series.hbm)
  @ track "NoC bandwidth (GB/s)" (scale_rate rep.series.noc)
  @ List.concat_map
      (fun { core; _ } ->
        track
          (Printf.sprintf "core %d busy" core)
          (Array.to_list (Elk_util.Series.bins rep.series.core_busy.(core) ~n:bins)))
      rep.top_cores
