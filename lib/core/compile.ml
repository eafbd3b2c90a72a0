type options = {
  max_orders : int;
  max_edit_distance : int;
  max_preload : int;
  prune_margin : float;
}

let default_options =
  {
    max_orders = 24;
    max_edit_distance = 6;
    max_preload = 32;
    prune_margin = 0.25;
  }

let dyn_options = { default_options with max_orders = 1 }

type t = {
  pod : Elk_arch.Arch.pod;
  graph : Elk_model.Graph.t;
  chip_graph : Elk_model.Graph.t;
  schedule : Schedule.t;
  timeline : Timeline.result;
  program : Program.t;
  allreduce : float;
  orders_tried : int;
  compile_seconds : float;
}

module Span = Elk_obs.Span
module Metrics = Elk_obs.Metrics

exception Rejected of string

type verifier =
  Elk_partition.Partition.ctx -> Schedule.t -> Program.t -> (unit, string) result

let the_verifier : verifier option ref = ref None
let set_verifier v = the_verifier := v
let verifier () = !the_verifier

(* Static verification gate: never emit a plan the verifier flags with
   an error.  The hook is installed by Elk_verify when that library is
   linked; warnings are logged by the hook itself. *)
let gate ctx ~model schedule program =
  match !the_verifier with
  | None -> ()
  | Some verify -> (
      match verify ctx schedule program with
      | Ok () -> ()
      | Error msg ->
          Elk_obs.Logger.error ~src:"compile" ~kvs:[ ("model", model) ]
            ("plan rejected by verifier: " ^ msg);
          raise (Rejected msg))

(* Whole-plan cache.  The key digests everything a compile depends on —
   the partition-context fingerprint (chip + cost-model behavior), every
   option field, the pod, and the full input graph content (names
   included, since they flow into the exported plan).  A warm hit
   therefore returns a value from an earlier compile of the {e same}
   inputs: byte-identical by construction.  Disk entries (when
   ELK_COMPILE_CACHE_DIR is set) persist the schedule across processes;
   cheap derived pieces (timeline, program, all-reduce) are recomputed on
   load and the plan re-passes the verifier gate before being trusted. *)
let plan_store : (string, t) Compilecache.Lru.t = Compilecache.Lru.create ~cap:512 ()
let () = Compilecache.on_reset (fun () -> Compilecache.Lru.clear plan_store)

let options_sig o =
  String.concat ","
    [
      string_of_int o.max_orders;
      string_of_int o.max_edit_distance;
      string_of_int o.max_preload;
      Printf.sprintf "%h" o.prune_margin;
    ]

let pod_sig (pod : Elk_arch.Arch.pod) =
  String.concat ","
    [
      string_of_int pod.Elk_arch.Arch.chips;
      Printf.sprintf "%h" pod.Elk_arch.Arch.interchip_bandwidth;
      Elk_arch.Arch.fingerprint pod.Elk_arch.Arch.chip;
    ]

(* What a disk entry holds: the source graph, the schedule (which embeds
   the chip graph), and the search effort spent producing it. *)
type disk_entry = Elk_model.Graph.t * Schedule.t * int

let probe_cache ~key ~pod ~t0 ctx graph =
  Span.with_span "compile.cache" (fun () ->
      match Compilecache.Lru.find plan_store key with
      | Some t ->
          (* Re-run the verifier gate: a cold compile of these inputs
             would produce this exact plan and gate it, and the installed
             verifier may have changed since the entry was written. *)
          gate ctx ~model:(Elk_model.Graph.name graph) t.schedule t.program;
          Compilecache.note_plan_hit ();
          Some { t with pod; compile_seconds = Unix.gettimeofday () -. t0 }
      | None -> (
          match (Compilecache.disk_find ~key : disk_entry option) with
          | None -> None
          | Some (g, schedule, orders_tried) -> (
              let chip_graph = schedule.Schedule.graph in
              let t =
                {
                  pod;
                  graph = g;
                  chip_graph;
                  schedule;
                  timeline = Timeline.evaluate ctx schedule;
                  program = Program.of_schedule schedule;
                  allreduce = Sharding.allreduce_time pod chip_graph;
                  orders_tried;
                  compile_seconds = Unix.gettimeofday () -. t0;
                }
              in
              (* A disk entry that no longer satisfies the verifier (e.g.
                 written by a different build) degrades to a miss — the
                 cold path recompiles from scratch. *)
              let ok =
                match !the_verifier with
                | None -> true
                | Some verify -> (
                    match verify ctx t.schedule t.program with
                    | Ok () -> true
                    | Error msg ->
                        Elk_obs.Logger.warn ~src:"compile"
                          ~kvs:[ ("model", Elk_model.Graph.name graph) ]
                          ("discarding on-disk cached plan: " ^ msg);
                        false)
              in
              if not ok then None
              else begin
                Compilecache.note_plan_hit ();
                Compilecache.note_disk_hit ();
                Compilecache.Lru.put plan_store key t;
                Some t
              end)))

let chip_graph ctx ~pod graph =
  Opsplit.split_graph ctx (Sharding.shard_graph ~chips:pod.Elk_arch.Arch.chips graph)

type candidates = { survivors : (Schedule.t * float) list; tried : int }

let note_pruned () =
  Metrics.incr "elk_compile_orders_pruned_total"
    ~help:"Candidate preload orders pruned by the branch-and-bound lower bound"

(* The head candidate (the execution order) is scheduled sequentially:
   it warms the partition memo caches before the fan-out, and its lower
   bound fixes the cutoff.  The scheduler abandons an induction whose
   running estimate exceeds the cutoff ({!Scheduler.Pruned}); a finished
   schedule whose own lower bound exceeds it is dropped.  The cutoff
   depends only on the head, so the survivors are the same whatever the
   jobs count. *)
let candidates ?(options = default_options) ctx chip_graph =
  let orders =
    Span.with_span "order-gen" (fun () ->
        if options.max_orders <= 1 then
          [ Array.init (Elk_model.Graph.length chip_graph) (fun i -> i) ]
        else
          Reorder.candidate_orders ~max_orders:options.max_orders
            ~max_edit_distance:options.max_edit_distance ctx chip_graph)
  in
  let schedule_order ?cutoff order =
    Metrics.incr "elk_compile_orders_tried_total"
      ~help:"Candidate preload orders attempted by the scheduler";
    try
      let s =
        Span.with_span "schedule" (fun () ->
            Scheduler.run ~order ~max_preload:options.max_preload ?cutoff ctx chip_graph)
      in
      Some (s, Timeline.lower_bound ctx s)
    with
    | Scheduler.Infeasible _ ->
        Metrics.incr "elk_compile_orders_infeasible_total"
          ~help:"Candidate preload orders rejected as infeasible";
        None
    | Scheduler.Pruned ->
        note_pruned ();
        None
  in
  let head, rest =
    match orders with [] -> (None, []) | first :: rest -> (schedule_order first, rest)
  in
  let cutoff =
    match head with
    | Some (_, lb) when options.prune_margin >= 0. -> lb *. (1. +. options.prune_margin)
    | _ -> infinity
  in
  let scheduled =
    Option.to_list head
    @ List.filter_map Fun.id
        (Elk_util.Pool.map (Elk_util.Pool.get ()) (schedule_order ~cutoff) rest)
  in
  (* A dropped schedule counts as pruned, and still as tried. *)
  let survivors, dropped = List.partition (fun (_, lb) -> lb <= cutoff) scheduled in
  List.iter (fun _ -> note_pruned ()) dropped;
  match survivors with
  | [] ->
      (* Re-run in execution order to surface the underlying error. *)
      let s = Span.with_span "schedule" (fun () -> Scheduler.run ctx chip_graph) in
      { survivors = [ (s, Timeline.lower_bound ctx s) ]; tried = 1 }
  | _ -> { survivors; tried = List.length scheduled }

let compile ?(options = default_options) ctx ~pod graph =
  Span.with_span "compile"
    ~attrs:[ ("model", Elk_model.Graph.name graph) ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let key =
        if Compilecache.enabled () then
          Some
            (Compilecache.digest_strings
               [
                 Elk_partition.Partition.fingerprint ctx;
                 options_sig options;
                 pod_sig pod;
                 Compilecache.graph_digest graph;
               ])
        else None
      in
      match Option.bind key (fun key -> probe_cache ~key ~pod ~t0 ctx graph) with
      | Some t ->
          Elk_obs.Logger.debug ~src:"compile"
            ~kvs:[ ("model", Elk_model.Graph.name graph) ]
            "compile cache hit";
          t
      | None ->
      Option.iter (fun _ -> Compilecache.note_plan_miss ()) key;
      let chip_graph = Span.with_span "shard" (fun () -> chip_graph ctx ~pod graph) in
      let { survivors; tried } = candidates ~options ctx chip_graph in
      (* Fold in candidate order: a survivor whose stall-free lower bound
         already exceeds the best total so far cannot win and is not
         evaluated; any other wins only with a strictly lower total, so
         ties keep the lowest candidate index. *)
      let evaluate s = Span.with_span "timeline-eval" (fun () -> Timeline.evaluate ctx s) in
      let step ((_, btl) as best) (s, lb) =
        if lb > btl.Timeline.total then begin
          note_pruned ();
          best
        end
        else
          let tl = evaluate s in
          if tl.Timeline.total < btl.Timeline.total then (s, tl) else best
      in
      let s, tl =
        match survivors with
        | [] -> assert false
        | (s, _) :: rest -> List.fold_left step (s, evaluate s) rest
      in
      let t =
        {
          pod;
          graph;
          chip_graph;
          schedule = s;
          timeline = tl;
          program = Program.of_schedule s;
          allreduce = Sharding.allreduce_time pod chip_graph;
          orders_tried = tried;
          compile_seconds = Unix.gettimeofday () -. t0;
        }
      in
      gate ctx ~model:(Elk_model.Graph.name graph) t.schedule t.program;
      (match key with
      | Some key ->
          Compilecache.Lru.put plan_store key t;
          Compilecache.disk_store ~key ((t.graph, t.schedule, t.orders_tried) : disk_entry)
      | None -> ());
      Elk_obs.Logger.info ~src:"compile"
        ~kvs:
          [
            ("model", Elk_model.Graph.name graph);
            ("orders_tried", string_of_int tried);
            ("latency_s", Printf.sprintf "%.6g" (tl.Timeline.total +. t.allreduce));
            ("compile_s", Printf.sprintf "%.3f" t.compile_seconds);
          ]
        "compiled plan";
      t)

let latency t = t.timeline.Timeline.total +. t.allreduce

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>model: %s on %a@,latency: %a (on-chip %a + all-reduce %a)@,%a@,hbm util: %.1f%%  noc util: %.1f%%  tflops: %.2f@,orders tried: %d, compile time: %.2fs@]"
    (Elk_model.Graph.name t.graph)
    Elk_arch.Arch.pp_pod t.pod Elk_util.Units.pp_time (latency t) Elk_util.Units.pp_time
    t.timeline.Timeline.total Elk_util.Units.pp_time t.allreduce Timeline.pp_breakdown
    t.timeline.Timeline.bd
    (100. *. t.timeline.Timeline.hbm_util)
    (100. *. t.timeline.Timeline.noc_util)
    (t.timeline.Timeline.achieved_flops /. 1e12)
    t.orders_tried t.compile_seconds
