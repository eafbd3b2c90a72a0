type options = {
  reorder : bool;
  max_orders : int;
  max_edit_distance : int;
  max_preload : int;
  prune_margin : float;
}

let default_options =
  {
    reorder = true;
    max_orders = 24;
    max_edit_distance = 6;
    max_preload = 32;
    prune_margin = 0.25;
  }

let dyn_options = { default_options with reorder = false }

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
      string_of_bool o.reorder;
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
      let chip_graph =
        Span.with_span "shard" (fun () ->
            Opsplit.split_graph ctx
              (Sharding.shard_graph ~chips:pod.Elk_arch.Arch.chips graph))
      in
      let orders =
        Span.with_span "order-gen" (fun () ->
            if options.reorder then
              Reorder.candidate_orders ~max_orders:options.max_orders
                ~max_edit_distance:options.max_edit_distance ctx chip_graph
            else [ Array.init (Elk_model.Graph.length chip_graph) (fun i -> i) ])
      in
      (* Branch-and-bound order search.  The head candidate (always the
         execution order) is scheduled and evaluated sequentially: it
         seeds the incumbent deterministically and warms the partition
         memo caches before the fan-out.  The remaining candidates run on
         the shared domain pool; each is bounded twice:

         - a {e static} scheduler cutoff — the baseline's stall-free
           lower bound stretched by [prune_margin] — aborts hopeless
           backward inductions early ({!Scheduler.Pruned}).  The scheduler
           compares it with its own running estimate, which bounds the
           finished schedule's [est_total] but not its stall-free lower
           bound (the estimate runs up to 3.6% above it on the zoo); the
           margin absorbs that gap.  The cutoff depends only on the
           baseline, so the set of orders it prunes is identical whatever
           the jobs count;
         - a shared incumbent (best full timeline total so far) lets a
           worker skip the quadratic {!Timeline.evaluate} whenever the
           candidate's O(n) {!Timeline.lower_bound} already exceeds it.
           Skipping is sound and cannot perturb the winner: the skipped
           total would be [>= lb > incumbent >= final best], strictly
           worse, so ties still resolve to the lowest candidate index.

         The final fold runs in candidate-list order, making the chosen
         plan byte-identical across jobs counts. *)
      let schedule_order ?cutoff order =
        Metrics.incr "elk_compile_orders_tried_total"
          ~help:"Candidate preload orders attempted by the scheduler";
        try
          Some
            (Span.with_span "schedule" (fun () ->
                 Scheduler.run ~order ~max_preload:options.max_preload ?cutoff ctx
                   chip_graph))
        with
        | Scheduler.Infeasible _ ->
            Metrics.incr "elk_compile_orders_infeasible_total"
              ~help:"Candidate preload orders rejected as infeasible";
            None
        | Scheduler.Pruned ->
            Metrics.incr "elk_compile_orders_pruned_total"
              ~help:"Candidate preload orders pruned by the branch-and-bound lower bound";
            None
      in
      let timeline_of s =
        Span.with_span "timeline-eval" (fun () -> Timeline.evaluate ctx s)
      in
      let base =
        match orders with
        | [] -> None
        | first :: _ -> (
            match schedule_order first with
            | None -> None
            | Some s -> Some (s, timeline_of s))
      in
      let cutoff =
        match base with
        | Some (s, _) when options.prune_margin >= 0. ->
            Timeline.lower_bound ctx s *. (1. +. options.prune_margin)
        | _ -> infinity
      in
      let incumbent =
        Atomic.make
          (match base with Some (_, tl) -> tl.Timeline.total | None -> infinity)
      in
      let rest = match orders with [] -> [] | _ :: tl -> tl in
      let candidates =
        Elk_util.Pool.map (Elk_util.Pool.get ())
          (fun order ->
            match schedule_order ~cutoff order with
            | None -> None
            | Some s ->
                (* Two evaluation skips: against the static cutoff (fires
                   deterministically, on candidates whose finished
                   stall-free makespan exceeds it although the scheduler's
                   running estimate never did) and against the shared
                   incumbent (timing-dependent but sound, see above). *)
                if
                  Timeline.lower_bound ctx s > Float.min cutoff (Atomic.get incumbent)
                then begin
                  Metrics.incr "elk_compile_orders_pruned_total"
                    ~help:
                      "Candidate preload orders pruned by the branch-and-bound lower bound";
                  (* Scheduled but not fully evaluated: still counts as
                     tried, keeping [orders_tried] jobs-independent. *)
                  Some (s, None)
                end
                else begin
                  let tl = timeline_of s in
                  let rec relax () =
                    let cur = Atomic.get incumbent in
                    if
                      tl.Timeline.total < cur
                      && not (Atomic.compare_and_set incumbent cur tl.Timeline.total)
                    then relax ()
                  in
                  relax ();
                  Some (s, Some tl)
                end)
          rest
      in
      let tried =
        (match base with Some _ -> 1 | None -> 0)
        + List.length (List.filter Option.is_some candidates)
      in
      let best =
        List.fold_left
          (fun acc c ->
            match c with
            | Some (s, Some tl) -> (
                match acc with
                | Some (_, btl) when btl.Timeline.total <= tl.Timeline.total -> acc
                | _ -> Some (s, tl))
            | Some (_, None) | None -> acc)
          base candidates
      in
      let s, tl, tried =
        match best with
        | Some (s, tl) -> (s, tl, tried)
        | None ->
            (* Re-run in execution order to surface the underlying error. *)
            let s = Span.with_span "schedule" (fun () -> Scheduler.run ctx chip_graph) in
            let tl = Span.with_span "timeline-eval" (fun () -> Timeline.evaluate ctx s) in
            (s, tl, 1)
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
