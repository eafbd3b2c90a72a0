(* Command-line interface to the Elk compiler framework.

   Subcommands:
     info     - show a model's operator graph summary
     compile  - compile one model with one design, print the plan summary
     compare  - run all designs on one model, print a comparison table
     program  - print the generated preload_async/execute program

   Example:
     elk_cli compare -m llama2-13b -b 32 --scale 8 *)

open Cmdliner
module B = Elk_baselines.Baselines
module D = Elk_dse.Dse
module Sim = Elk_sim.Sim

let model_conv =
  let parse s =
    match Elk_model.Zoo.by_name s with
    | Some cfg -> Ok cfg
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown model %S (try %s)" s
               (String.concat ", "
                  (List.map (fun c -> c.Elk_model.Zoo.cfg_name) Elk_model.Zoo.all))))
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt c.Elk_model.Zoo.cfg_name)

let model_t =
  Arg.(value & opt model_conv Elk_model.Zoo.llama2_13b & info [ "m"; "model" ] ~doc:"Model name.")

(* An integer of at least [lo]; anything else is cmdliner's usage error
   naming the option (exit 124). *)
let int_conv ~lo ~expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_conv = int_conv ~lo:1 ~expected:"a positive integer"

let nonnegative_conv = int_conv ~lo:0 ~expected:"a nonnegative integer"

(* A finite float that [ok] accepts, under the same usage error. *)
let finite_float_conv ~ok ~expected =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float_conv = finite_float_conv ~ok:(fun x -> x > 0.)

(* A time-series window width or an SLO target. *)
let seconds_conv = positive_float_conv ~expected:"a positive finite number of seconds"

let batch_t = Arg.(value & opt positive_conv 32 & info [ "b"; "batch" ] ~doc:"Batch size.")

let ctx_t =
  Arg.(
    value
    & opt nonnegative_conv 0
    & info [ "ctx" ] ~doc:"KV context length (0 = 2048/scale).")

let scale_t =
  Arg.(value & opt positive_conv 8 & info [ "scale" ] ~doc:"Width scale divisor (1 = full size).")

let layer_factor_t =
  Arg.(value & opt positive_conv 10 & info [ "layer-factor" ] ~doc:"Layer count divisor.")

let chips_t = Arg.(value & opt positive_conv 4 & info [ "chips" ] ~doc:"Chips in the pod.")
let cores_t = Arg.(value & opt positive_conv 64 & info [ "cores" ] ~doc:"Cores per chip.")

let topo_t =
  Arg.(
    value
    & opt (enum [ ("a2a", `All_to_all); ("mesh", `Mesh) ]) `All_to_all
    & info [ "topology" ] ~doc:"Interconnect topology: a2a or mesh.")

let design_t =
  Arg.(
    value
    & opt
        (enum
           [ ("basic", B.Basic); ("static", B.Static); ("elk-dyn", B.Elk_dyn);
             ("elk-full", B.Elk_full); ("ideal", B.Ideal) ])
        B.Elk_full
    & info [ "d"; "design" ] ~doc:"Design: basic, static, elk-dyn, elk-full or ideal.")

let prefill_t =
  Arg.(value & flag & info [ "prefill" ] ~doc:"Use the prefill phase instead of decode.")

let scale_cfg cfg ~scale ~layer_factor =
  if scale <= 1 then cfg else Elk_model.Zoo.scale cfg ~factor:scale ~layer_factor

(* -m --scale --layer-factor -b --ctx --prefill: the operator graph.
   Like [env_t], it yields a thunk, so a command builds the graph after
   enabling collection and only when it needs one. *)
let graph_t =
  let make cfg scale layer_factor batch ctx prefill () =
    let ctx = if ctx > 0 then ctx else max 32 (2048 / scale) in
    let phase =
      if prefill then Elk_model.Zoo.Prefill { batch; seq = ctx }
      else Elk_model.Zoo.Decode { batch; ctx }
    in
    Elk_model.Zoo.build (scale_cfg cfg ~scale ~layer_factor) phase
  in
  Term.(const make $ model_t $ scale_t $ layer_factor_t $ batch_t $ ctx_t $ prefill_t)

(* --chips --cores --topology: the pod and its partition context. *)
let env_t =
  Term.(
    const (fun chips cores topology () -> D.env ~chips ~cores ~topology ())
    $ chips_t $ cores_t $ topo_t)

(* The target of every compiling subcommand: a graph on a pod. *)
type target = { graph : unit -> Elk_model.Graph.t; env : unit -> D.env }

let target_t = Term.(const (fun graph env -> { graph; env }) $ graph_t $ env_t)

(* Plan [design] for the pod, or exit [code]: the Ideal roofline has no
   schedule to [verb]. *)
let plan_or_exit ?(code = 1) ~verb env g design =
  match B.plan env.D.ctx ~pod:env.D.pod g design with
  | Some s -> s
  | None ->
      Format.eprintf "elk_cli: the Ideal roofline has no schedule to %s@." verb;
      exit code

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the parallel candidate-order search (default: \
           $(b,ELK_JOBS), else the machine's recommended domain count).  The \
           compiled plan is byte-identical whatever the value.")

let set_jobs jobs = Option.iter Elk_util.Pool.set_jobs jobs

let no_cache_t =
  Arg.(
    value & flag
    & info [ "no-compile-cache" ]
        ~doc:
          "Disable the cross-compile incremental cache, the whole-plan \
           store in memory and on disk.  Equivalent to setting \
           $(b,ELK_COMPILE_CACHE=0) in the environment; compiled plans are \
           byte-identical either way.")

let set_cache no_cache = if no_cache then Elk.Compilecache.set_enabled false

(* ---- observability export flags (shared by compile/compare/report/profile) *)

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ]
        ~doc:
          "Write collected metrics to $(docv): Prometheus text format, or JSON \
           if the file name ends in .json.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write a Chrome/Perfetto trace to $(docv) containing the compiler \
           spans (and, where a simulation ran, the simulated device events) \
           on one timeline.")

(* Enable collection before any work runs if an export was requested. *)
let obs_setup ~metrics_out ~trace_out =
  if metrics_out <> None || trace_out <> None then Elk_obs.Control.enable ()

(* Write [data] to [path] and say so on stdout.  A bad path fails with a
   clean message, not cmdliner's uncaught-exception banner. *)
let emit ~what ?(said = what) path data =
  (try
     let oc = open_out path in
     output_string oc data;
     close_out oc
   with Sys_error msg ->
     Format.eprintf "elk_cli: cannot write %s: %s@." what msg;
     exit 1);
  Format.printf "wrote %s to %s@." said path

let write_metrics =
  Option.iter (fun path ->
      emit ~what:"metrics" path
        (if Filename.check_suffix path ".json" then Elk_obs.Metrics.to_json ()
         else Elk_obs.Metrics.to_prometheus ()))

(* Merge simulator events (tracks 1-2) with compiler spans (track 3) and
   any extra producer output (e.g. analyzer counter tracks). *)
let write_trace ?sim ?(extra = []) =
  Option.iter (fun path ->
      let sim_events =
        match sim with
        | Some (graph, r) ->
            Elk_sim.Trace.chrome_meta @ Elk_sim.Trace.chrome_events graph r
        | None -> []
      in
      let events = sim_events @ extra @ Elk_obs.Span.chrome_events () in
      emit ~what:"trace"
        ~said:(Printf.sprintf "trace (%d events)" (List.length events))
        path (Elk_obs.Chrome.wrap events))

let info_cmd =
  let run graph =
    let g = graph () in
    Format.printf "%a@." Elk_model.Graph.pp_summary g;
    Format.printf "HBM-heavy operators: %d (threshold %a)@."
      (List.length (Elk_model.Graph.hbm_heavy_ids g))
      Elk_util.Units.pp_bytes
      (Elk_model.Graph.mean_hbm_bytes g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Show a model's operator-graph summary.")
    Term.(const run $ graph_t)

let compile_cmd =
  let run target jobs no_cache codegen_dir save_plan metrics_out trace_out =
    obs_setup ~metrics_out ~trace_out;
    set_jobs jobs;
    set_cache no_cache;
    let g = target.graph () in
    let env = target.env () in
    let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
    Format.printf "%a@." Elk.Compile.pp_summary c;
    (match codegen_dir with
    | None -> ()
    | Some dir ->
        let gen = Elk.Codegen.generate env.D.ctx c.Elk.Compile.schedule in
        Elk.Codegen.write_to ~dir gen;
        Format.printf "wrote %d kernels (%d LoC) to %s@."
          (List.length gen.Elk.Codegen.kernels)
          (Elk.Codegen.total_loc gen) dir);
    (match save_plan with
    | None -> ()
    | Some path ->
        (* Record the SRAM address layout so [elk lint --plan] checks the
           addresses this compile actually assigned. *)
        let layout = Elk.Alloc.layout_of_schedule c.Elk.Compile.schedule in
        Elk.Planio.save ~layout ~path c.Elk.Compile.schedule;
        Format.printf "saved plan to %s@." path);
    (match trace_out with
    | None -> ()
    | Some _ ->
        let r = Sim.run env.D.ctx c.Elk.Compile.schedule in
        write_trace ~sim:(c.Elk.Compile.chip_graph, r) trace_out);
    write_metrics metrics_out
  in
  let codegen_t =
    Arg.(value & opt (some string) None
         & info [ "emit-kernels" ] ~doc:"Write generated kernel sources under $(docv).")
  in
  let save_plan_t =
    Arg.(value & opt (some string) None
         & info [ "save-plan" ] ~doc:"Serialize the compiled plan to $(docv).")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a model with Elk and print the plan summary.")
    Term.(
      const run $ target_t $ jobs_t $ no_cache_t $ codegen_t $ save_plan_t
      $ metrics_out_t $ trace_out_t)

let compare_cmd =
  let run target jobs no_cache metrics_out trace_out =
    obs_setup ~metrics_out ~trace_out;
    set_jobs jobs;
    set_cache no_cache;
    let g = target.graph () in
    let env = target.env () in
    let t =
      Elk_util.Table.create
        ~title:(Printf.sprintf "designs on %s (simulated)" (Elk_model.Graph.name g))
        ~columns:[ "design"; "latency"; "HBM util"; "NoC util"; "TFLOPS" ]
    in
    List.iter
      (fun d ->
        let e = D.evaluate env g d in
        Elk_util.Table.add_row t
          [ B.name d;
            Format.asprintf "%a" Elk_util.Units.pp_time e.D.latency;
            Printf.sprintf "%.1f%%" (100. *. e.D.hbm_util);
            Printf.sprintf "%.1f%%" (100. *. e.D.noc_util);
            Printf.sprintf "%.2f" e.D.tflops ])
      B.all;
    Elk_util.Table.print t;
    write_trace trace_out;
    write_metrics metrics_out
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Evaluate all designs on one model with the simulator.")
    Term.(const run $ target_t $ jobs_t $ no_cache_t $ metrics_out_t $ trace_out_t)

let program_cmd =
  let run target design limit =
    let g = target.graph () in
    let env = target.env () in
    match B.plan env.D.ctx ~pod:env.D.pod g design with
    | None -> print_endline "Ideal is a roofline; it has no device program."
    | Some s ->
        let p = Elk.Program.of_schedule s in
        Array.iteri
          (fun i instr ->
            if i < limit then
              match instr with
              | Elk.Program.Preload_async op -> Printf.printf "preload_async(op=%d)\n" op
              | Elk.Program.Execute op -> Printf.printf "execute(op=%d)\n" op)
          p.Elk.Program.instrs;
        if Array.length p.Elk.Program.instrs > limit then
          Printf.printf "... (%d more instructions)\n"
            (Array.length p.Elk.Program.instrs - limit)
  in
  let limit_t =
    Arg.(value & opt nonnegative_conv 40 & info [ "limit" ] ~doc:"Max instructions to print.")
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Print the generated preload_async/execute device program.")
    Term.(const run $ target_t $ design_t $ limit_t)

let report_cmd =
  let run target jobs metrics_out trace_out =
    obs_setup ~metrics_out ~trace_out;
    set_jobs jobs;
    let g = target.graph () in
    let env = target.env () in
    let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
    let r = Sim.run env.D.ctx c.Elk.Compile.schedule in
    Elk_dse.Report.print env c r;
    write_trace ~sim:(c.Elk.Compile.chip_graph, r) trace_out;
    write_metrics metrics_out
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Compile, simulate and print a Markdown diagnostics report.")
    Term.(const run $ target_t $ jobs_t $ metrics_out_t $ trace_out_t)

(* ---- the views of one simulated run: analyze, critpath, mem, noc ---- *)

(* What a view's display flags set.  Views without --window or
   --top-segments ignore those fields. *)
type knobs = { top : int; window : float option; top_segments : int }

(* One row of the view table: everything in which the views differ.  The
   report type ['r] is the row's own. *)
type 'r row = {
  name : string;
  doc : string;
  verb : string;  (* "the Ideal roofline has no schedule to <verb>" *)
  events : bool;  (* the simulator recorders the row reads *)
  mem : bool;
  noc : bool;
  top : int * string;  (* --top default and help *)
  window : string option;  (* --window help, for views with a time series *)
  top_segments : (int * string) option;
  json : string * string;  (* what --json-out writes, and its help *)
  analyze : knobs -> Elk_partition.Partition.ctx -> Elk.Schedule.t -> Sim.result -> 'r;
  check : Sim.result -> 'r -> (unit, string) result;
  print : knobs -> 'r -> unit;
  to_json : knobs -> 'r -> string;
  gauges : 'r -> unit;
  counters : 'r -> string list;  (* extra trace tracks *)
}

type view = View : 'r row -> view

let prefix p = Result.map_error (fun m -> p ^ m)

let views =
  let module An = Elk_analyze.Analyze in
  let module Cp = Elk_sim.Critpath in
  let module Mp = Elk_analyze.Memprof in
  let module Np = Elk_analyze.Nocprof in
  let set = Elk_obs.Metrics.set in
  [
    View
      {
        name = "analyze";
        doc =
          "Simulate a design and print a bottleneck report: per-core \
           attribution, dominant resource per operator, load imbalance, and \
           what-if headroom.";
        verb = "analyze";
        events = false;
        mem = false;
        noc = false;
        top = (8, "Cores/tracks to show in detail.");
        window = None;
        top_segments = None;
        json = ("analysis", "Write the full bottleneck report as JSON to $(docv).");
        analyze = (fun k _ s r -> An.analyze ~top:k.top s r);
        check =
          (fun r _ ->
            prefix "attribution leak: "
              (Elk_sim.Perfcore.check r.Sim.perf ~total:r.Sim.total));
        print = (fun _ rep -> An.print rep);
        to_json = (fun _ rep -> An.to_json rep);
        gauges = ignore;
        counters = An.chrome_counter_events;
      };
    View
      {
        name = "critpath";
        doc =
          "Simulate a design with causal event tracing and print the critical \
           path: classified segments, per-operator slack, and a top-k blame \
           report.  With --trace-out, the causal chain is drawn as Perfetto \
           flow arrows over the device timeline.";
        verb = "trace";
        events = true;
        mem = false;
        noc = false;
        top = (10, "Operators in the blame report.");
        window = None;
        top_segments = Some (12, "Critical segments to show in detail.");
        json =
          ( "critical path",
            "Write the critical-path snapshot as JSON to $(docv) — the format \
             $(b,elk trace diff) consumes." );
        analyze = (fun _ _ s r -> (s, Cp.extract (Option.get r.Sim.events)));
        check =
          (fun r (s, sum) ->
            Result.bind
              (prefix "causal-DAG violation: "
                 (Cp.check (Option.get r.Sim.events) ~total:r.Sim.total))
              (fun () ->
                prefix "critpath/attribution cross-check: "
                  (An.headroom_check (An.analyze s r) sum)));
        print =
          (fun k (s, sum) ->
            Cp.print ~top:k.top ~top_segments:k.top_segments s.Elk.Schedule.graph sum);
        to_json = (fun _ (s, sum) -> Cp.to_json s.Elk.Schedule.graph sum);
        gauges = ignore;
        counters = (fun (_, sum) -> Elk_sim.Trace.flow_events sum);
      };
    View
      {
        name = "mem";
        doc =
          "Simulate a design with SRAM-residency recording and print the \
           memory report: per-core occupancy timeline, high-water marks vs \
           usable SRAM, wasted residency, the static buffer-lifetime ledger \
           and the HBM traffic ledger.  With --trace-out, occupancy gauges \
           are exported as Perfetto counter tracks beside the device \
           timeline.";
        verb = "profile";
        events = false;
        mem = true;
        noc = false;
        top = (10, "Buffers/operators to show in detail.");
        window = Some "Occupancy time-series window width (default: makespan/48).";
        top_segments = None;
        json =
          ( "memory report",
            "Write the memory report as JSON to $(docv) — the top-level \
             total/segments follow the format $(b,elk trace diff) consumes." );
        analyze = (fun k ctx s r -> Mp.analyze ?window:k.window ctx s r);
        check = (fun _ rep -> prefix "memory invariant violated: " (Mp.check rep));
        print =
          (fun k rep ->
            let over = Mp.overcommit_bytes rep in
            if over > 0. then
              Format.eprintf
                "warning[mem.overcommit] peak occupancy %.0f B/core (%.0f B \
                 over per-core SRAM); contention is charged downstream@."
                rep.Mp.dyn_high_water over;
            Mp.print ~top:k.top rep);
        to_json = (fun k rep -> Mp.to_json ~top:k.top rep);
        gauges =
          (fun rep ->
            set "elk_mem_dyn_high_water_bytes"
              ~help:"Peak per-core SRAM occupancy (dynamic)" rep.Mp.dyn_high_water;
            set "elk_mem_static_high_water_bytes"
              ~help:"Peak per-core SRAM demand (static ledger)"
              rep.Mp.static_high_water;
            set "elk_mem_wasted_byte_seconds"
              ~help:"Pre-use + exchange-tail wasted residency"
              (rep.Mp.pre_waste +. rep.Mp.post_waste));
        counters = Mp.chrome_counter_events;
      };
    View
      {
        name = "noc";
        doc =
          "Simulate a design with per-link interconnect recording and print \
           the congestion report: hottest links with traffic-class breakdown, \
           route-length histogram, a mesh heatmap on 2D topologies, and the \
           dynamic-vs-static cross-check against the schedule's \
           communication.  With --trace-out, per-link utilization gauges are \
           exported as Perfetto counter tracks beside the device timeline.";
        verb = "profile";
        events = false;
        mem = false;
        noc = true;
        top = (10, "Hottest links to show in detail.");
        window = Some "Utilization time-series window width (default: makespan/48).";
        top_segments = None;
        json =
          ( "interconnect report",
            "Write the interconnect report as JSON to $(docv) — the top-level \
             total/segments follow the format $(b,elk trace diff) consumes." );
        analyze = (fun k _ s r -> Np.analyze ?window:k.window s r);
        check =
          (fun _ rep -> prefix "interconnect invariant violated: " (Np.check rep));
        print = (fun k rep -> Np.print ~top:k.top rep);
        to_json = (fun k rep -> Np.to_json ~top:k.top rep);
        gauges =
          (fun rep ->
            Option.iter
              (fun (_, busy) ->
                set "elk_noc_busiest_link_busy_seconds"
                  ~help:"Reservation time on the hottest interconnect link" busy)
              rep.Np.busiest_dyn;
            set "elk_noc_transfer_bytes"
              ~help:"Bytes moved over the interconnect, once per transfer"
              (rep.Np.pre_bytes +. rep.Np.dist_bytes +. rep.Np.ex_bytes);
            set "elk_noc_mean_hops" ~help:"Byte-weighted mean route length"
              rep.Np.mean_hops);
        counters = Np.chrome_counter_events;
      };
  ]

(* Every view runs the same way: plan, simulate with the row's
   recorders, refuse a --window that cuts the makespan into too many
   windows (exit 2), analyze, check (a violation exits 1), print, then
   the JSON snapshot, the gauges, the trace with the row's extra tracks,
   and the metrics. *)
let view_cmd (View v) =
  let run target design (knobs : knobs) json_out metrics_out trace_out =
    obs_setup ~metrics_out ~trace_out;
    let g = target.graph () in
    let env = target.env () in
    let s = plan_or_exit ~verb:v.verb env g design in
    let r = Sim.run ~events:v.events ~mem:v.mem ~noc:v.noc env.D.ctx s in
    Option.iter
      (fun window ->
        match Elk_obs.Timeseries.check_window ~window ~horizon:r.Sim.total with
        | Ok () -> ()
        | Error m ->
            Format.eprintf "elk_cli: %s@." m;
            exit 2)
      knobs.window;
    let rep = v.analyze knobs env.D.ctx s r in
    (match v.check r rep with
    | Ok () -> ()
    | Error m ->
        Format.eprintf "elk_cli: %s@." m;
        exit 1);
    v.print knobs rep;
    Option.iter (fun path -> emit ~what:(fst v.json) path (v.to_json knobs rep)) json_out;
    v.gauges rep;
    write_trace ~sim:(s.Elk.Schedule.graph, r) ~extra:(v.counters rep) trace_out;
    write_metrics metrics_out
  in
  let top_t = Arg.(value & opt nonnegative_conv (fst v.top) & info [ "top" ] ~doc:(snd v.top)) in
  let window_t =
    match v.window with
    | None -> Term.const None
    | Some doc ->
        Arg.(value & opt (some seconds_conv) None & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let top_segments_t =
    match v.top_segments with
    | None -> Term.const 0
    | Some (n, doc) -> Arg.(value & opt nonnegative_conv n & info [ "top-segments" ] ~doc)
  in
  let knobs_t =
    Term.(
      const (fun top window top_segments -> { top; window; top_segments })
      $ top_t $ window_t $ top_segments_t)
  in
  let json_out_t =
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc:(snd v.json))
  in
  Cmd.v (Cmd.info v.name ~doc:v.doc)
    Term.(const run $ target_t $ design_t $ knobs_t $ json_out_t $ metrics_out_t $ trace_out_t)

let trace_cmd =
  let diff_cmd =
    let run old_path new_path threshold top json_out =
      let read what path =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error msg ->
          Format.eprintf "elk_cli: cannot read %s snapshot: %s@." what msg;
          exit 2
      in
      let old_json = read "old" old_path and new_json = read "new" new_path in
      match Elk_analyze.Tracediff.diff ~old_json ~new_json with
      | Error m ->
          Format.eprintf "elk_cli: %s@." m;
          exit 2
      | Ok d ->
          Elk_analyze.Tracediff.print ~top d;
          Option.iter
            (fun path ->
              emit ~what:"trace diff" ~said:"diff" path
                (Elk_analyze.Tracediff.to_json ~threshold d))
            json_out;
          if Elk_analyze.Tracediff.regressed ~threshold d then begin
            List.iter
              (fun e ->
                Format.printf "REGRESSED %s: %+.3g us@." e.Elk_analyze.Tracediff.key
                  (1e6 *. Elk_analyze.Tracediff.delta e))
              (Elk_analyze.Tracediff.regressed_entries ~threshold d);
            if d.Elk_analyze.Tracediff.total_new -. d.Elk_analyze.Tracediff.total_old
               > threshold *. Float.abs d.Elk_analyze.Tracediff.total_old
            then Format.printf "REGRESSED makespan: %+.3g us@."
                (1e6
                *. (d.Elk_analyze.Tracediff.total_new
                   -. d.Elk_analyze.Tracediff.total_old));
            exit 1
          end
    in
    let old_t =
      Arg.(required & pos 0 (some file) None
           & info [] ~docv:"OLD" ~doc:"Baseline critpath JSON snapshot.")
    in
    let new_t =
      Arg.(required & pos 1 (some file) None
           & info [] ~docv:"NEW" ~doc:"Fresh critpath JSON snapshot.")
    in
    let threshold_t =
      Arg.(value
           & opt
               (finite_float_conv ~ok:(fun x -> x >= 0.)
                  ~expected:"a nonnegative finite fraction")
               0.02
           & info [ "threshold" ]
               ~doc:
                 "Regression gate: exit 1 when the makespan or any \
                  resource/segment grows by more than this fraction of the \
                  old makespan.")
    in
    let top_t =
      Arg.(value & opt nonnegative_conv 12 & info [ "top" ] ~doc:"Segment deltas to print.")
    in
    let json_out_t =
      Arg.(value & opt (some string) None
           & info [ "json-out" ] ~doc:"Write the diff (with verdict) as JSON to $(docv).")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two critpath snapshots: makespan, per-resource, and \
            per-segment deltas.  Exit 0 when within threshold, 1 on \
            regression, 2 on unreadable input.")
      Term.(const run $ old_t $ new_t $ threshold_t $ top_t $ json_out_t)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Operate on recorded trace/critpath snapshots.")
    [ diff_cmd ]

let profile_cmd =
  let run target jobs metrics_out trace_out =
    Elk_obs.Control.enable ();
    set_jobs jobs;
    let g = target.graph () in
    let env = target.env () in
    (* Spans recorded so far ran in the set-up (the cost-model fit), not
       inside [compile]: their share of it is left blank. *)
    let setup = List.map (fun sp -> sp.Elk_obs.Span.name) (Elk_obs.Span.spans ()) in
    let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
    let totals = Elk_obs.Span.totals () in
    let overall =
      match List.find_opt (fun (name, _, _) -> name = "compile") totals with
      | Some (_, _, tot) -> tot
      | None -> List.fold_left (fun a (_, _, tot) -> a +. tot) 0. totals
    in
    let fmt_t v = Format.asprintf "%a" Elk_util.Units.pp_time v in
    let t =
      Elk_util.Table.create
        ~title:
          (Printf.sprintf "compile phases for %s (%d orders tried)"
             (Elk_model.Graph.name g) c.Elk.Compile.orders_tried)
        ~columns:[ "phase"; "calls"; "total"; "mean"; "share" ]
    in
    List.iter
      (fun (name, calls, tot) ->
        Elk_util.Table.add_row t
          [
            name;
            string_of_int calls;
            fmt_t tot;
            fmt_t (tot /. float_of_int (max 1 calls));
            (if List.mem name setup then ""
             else Printf.sprintf "%.1f%%" (100. *. tot /. Float.max 1e-12 overall));
          ])
      totals;
    Elk_util.Table.print t;
    let ct =
      Elk_util.Table.create ~title:"compile counters" ~columns:[ "counter"; "value" ]
    in
    List.iter
      (fun (name, v) -> Elk_util.Table.add_row ct [ name; Printf.sprintf "%.0f" v ])
      (Elk_obs.Metrics.counters ());
    Elk_util.Table.print ct;
    write_trace trace_out;
    write_metrics metrics_out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile a model with span collection on and print a per-phase \
          compile-time table.")
    Term.(const run $ target_t $ jobs_t $ metrics_out_t $ trace_out_t)

(* ---- verify and lint: static checks over one plan ---- *)

module V = Elk_verify.Verify
module R = Elk_verify.Rules

(* The rule-registry table behind `verify --rules help` and
   `lint --rules help`. *)
let print_rules () =
  let t =
    Elk_util.Table.create ~title:"verifier rules"
      ~columns:[ "rule"; "severity"; "mode"; "summary" ]
  in
  List.iter
    (fun r ->
      Elk_util.Table.add_row t
        [
          r.R.id;
          Elk_verify.Diag.severity_name r.R.default_severity;
          (if r.R.opt_in then "opt-in" else "default");
          r.R.summary;
        ])
    R.all;
  Elk_util.Table.print t

(* The body [verify] and [lint] share: parse --rules/--error (exit 2 on
   a bad spec), plan with the compile-time verifier uninstalled or load
   --plan (exit 2), run the rules, print the report and its JSON, then
   exit 1 on errors or, under --strict, 3 on warnings.  [select] turns
   the parsed --rules into the rule selection, [layout] says whether a
   plan file's recorded layout feeds the rules, and [extra_t] adds
   lint's outputs: it runs after the JSON, and false means exit 4. *)
let plan_check_cmd name ~doc ~what ~plan_doc ~select ~layout extra_t =
  let run target jobs design plan_file strict rules error_spec extra json_out
      metrics_out trace_out =
    obs_setup ~metrics_out ~trace_out;
    set_jobs jobs;
    if rules = Some "help" then print_rules ()
    else begin
      let parsed = function
        | Ok v -> v
        | Error msg ->
            Format.eprintf "elk_cli: %s@." msg;
            exit 2
      in
      let sel = select (Option.map (fun s -> parsed (R.selection_of_string s)) rules) in
      let promote =
        match error_spec with
        | None -> R.no_promotion
        | Some spec -> parsed (R.promotion_of_string spec)
      in
      let env = target.env () in
      let sched, recorded =
        match plan_file with
        | Some path -> (
            match Elk.Planio.load_ext env.D.ctx ~path with
            | Ok loaded -> loaded
            | Error msg ->
                Format.eprintf "elk_cli: cannot load plan %s: %s@." path msg;
                exit 2)
        | None ->
            let g = target.graph () in
            (* Plan with the compile-time verifier uninstalled: a flagged
               plan must be reported by this command, not thrown by the
               compiler before we can show the diagnostics. *)
            let saved = Elk.Compile.verifier () in
            Elk.Compile.set_verifier None;
            ( Fun.protect
                ~finally:(fun () -> Elk.Compile.set_verifier saved)
                (fun () -> plan_or_exit ~code:2 ~verb:name env g design),
              None )
      in
      let layout = if layout then recorded else None in
      let program = Elk.Program.of_schedule sched in
      let r = V.run ~rules:sel ~promote ?layout ~program env.D.ctx sched in
      Format.printf "%a" V.pp_report r;
      Option.iter
        (fun path -> emit ~what ~said:"report" path (V.report_to_json r))
        json_out;
      let extra_ok = extra env sched r in
      write_trace trace_out;
      write_metrics metrics_out;
      if not extra_ok then exit 4;
      if V.errors r > 0 then exit 1;
      if strict && V.warnings r > 0 then exit 3
    end
  in
  let plan_t = Arg.(value & opt (some string) None & info [ "plan" ] ~doc:plan_doc) in
  let strict_t =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit nonzero (3) on warnings, not only errors (1).")
  in
  let rules_t =
    Arg.(value & opt (some string) None
         & info [ "rules" ]
             ~doc:
               "Comma-separated rule ids or family prefixes (mem, dep, num, bw, \
                race, deadlock); prefix a token with - to suppress it.  \
                $(b,help) lists every rule.")
  in
  let error_t =
    Arg.(value & opt (some string) None
         & info [ "error" ]
             ~doc:
               "Promote the named rules or families to error severity, so their \
                diagnostics fail the command (exit 1).")
  in
  let json_out_t =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~doc:"Write the full diagnostic report as JSON to $(docv).")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ target_t $ jobs_t $ design_t $ plan_t $ strict_t $ rules_t $ error_t
      $ extra_t $ json_out_t $ metrics_out_t $ trace_out_t)

let verify_cmd =
  plan_check_cmd "verify" ~what:"verification report"
    ~doc:
      "Statically verify a compiled plan: memory safety, dependency and \
       order soundness, numeric hygiene, and bandwidth feasibility."
    ~plan_doc:"Verify a serialized plan file instead of compiling."
    ~select:(Option.value ~default:R.default_selection)
    ~layout:false
    (Term.const (fun _ _ _ -> true))

let lint_cmd =
  let module Dg = Elk_verify.Diag in
  let module C = Elk_sim.Critpath in
  (* Cross-validate every race diagnostic against the simulator's causal
     event DAG: the flagged pair must be unordered there too — the
     victim's releasing event must not reach the clobbering write.  A
     path would mean the static happens-before DAG is weaker than the
     device semantics the simulator implements, i.e. a false positive. *)
  let crosscheck_races env sched (r : V.report) =
    let is_race d = R.(match find d.Dg.rule with
      | Some ru -> ru.family = Race
      | None -> false)
    in
    let race_diags = List.filter is_race r.V.diags in
    if race_diags = [] then begin
      Format.printf "crosscheck: no race diagnostics to validate@.";
      true
    end
    else begin
      let res = Sim.run ~events:true env.D.ctx sched in
      match res.Sim.events with
      | None ->
          Format.eprintf "elk_cli: simulator recorded no events@.";
          false
      | Some events ->
          let find_any op kinds =
            List.find_map (fun kind -> C.find_event events ~op ~kind) kinds
          in
          (* The event realizing a buffer's first write: a preload buffer
             is written by its delivery (pure-sequencing fallbacks for
             zero-byte preloads), an execute buffer by its distribution
             or compute. *)
          let writer op = function
            | "preload" -> find_any op [ C.Preload_deliver; C.Hbm_read; C.Preload_issue ]
            | _ -> find_any op [ C.Distribute; C.Tile_compute ]
          in
          (* The event realizing a buffer's last read: a preload buffer is
             consumed by its op's distribution, an execute buffer by the
             exchange tail. *)
          let release op = function
            | "preload" -> find_any op [ C.Distribute; C.Tile_compute ]
            | _ -> find_any op [ C.Exchange; C.Tile_compute ]
          in
          let ok = ref true in
          List.iter
            (fun d ->
              let p k = List.assoc_opt k d.Dg.payload in
              match (p "victim_op", p "victim_kind", p "clobber_op", p "clobber_kind") with
              | ( Some (Dg.Int vo),
                  Some (Dg.Str vk),
                  Some (Dg.Int co),
                  Some (Dg.Str ck) ) -> (
                  match (release vo vk, writer co ck) with
                  | Some rel, Some acq ->
                      if C.reaches events ~src:rel ~dst:acq then begin
                        ok := false;
                        Format.eprintf
                          "crosscheck FAILED: %s — the simulated causal DAG \
                           orders op %d's release before op %d's write@."
                          d.Dg.rule vo co
                      end
                  | _ ->
                      ok := false;
                      Format.eprintf
                        "crosscheck FAILED: no simulated events for the %s \
                         pair (ops %d, %d)@."
                        d.Dg.rule vo co)
              | _ ->
                  ok := false;
                  Format.eprintf "crosscheck FAILED: %s carries no race payload@."
                    d.Dg.rule)
            race_diags;
          if !ok then
            Format.printf
              "crosscheck: %d race diagnostic(s) confirmed unordered in the \
               simulated causal DAG@."
              (List.length race_diags);
          !ok
    end
  in
  let crosscheck_t =
    Arg.(value & flag
         & info [ "crosscheck" ]
             ~doc:
               "Replay the plan in the simulator with event recording and \
                confirm every race diagnostic is unordered in the causal event \
                DAG too (exit 4 on disagreement).")
  in
  let sarif_t =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~doc:"Write the report as SARIF 2.1.0 to $(docv).")
  in
  let extra crosscheck sarif_out env sched r =
    Option.iter
      (fun path ->
        emit ~what:"SARIF report" ~said:"SARIF" path (Elk_verify.Sarif.of_report r))
      sarif_out;
    (not crosscheck) || crosscheck_races env sched r
  in
  plan_check_cmd "lint" ~what:"lint report"
    ~doc:
      "Whole-plan soundness lint: every verify rule plus the opt-in \
       happens-before race analysis and the interconnect \
       channel-dependency deadlock analysis."
    ~plan_doc:
      "Lint a serialized plan file instead of compiling; a recorded layout \
       section supplies the addresses for the race analysis."
    (* An explicit spec keeps lint semantics: its implicit "everything"
       covers the opt-in families too. *)
    ~select:(function None -> R.lint_selection | Some sel -> R.with_opt_in sel)
    ~layout:true
    Term.(const extra $ crosscheck_t $ sarif_t)

let serve_cmd =
  let module W = Elk_serve.Workload in
  let module F = Elk_serve.Frontend in
  let run cfg scale layer_factor env jobs no_cache design workload rate requests
      seed prompt output max_batch slo_ttft slo_itl window mem noc
      json_out metrics_out trace_out =
    set_jobs jobs;
    set_cache no_cache;
    obs_setup ~metrics_out ~trace_out;
    let cfg = scale_cfg cfg ~scale ~layer_factor in
    let env = env () in
    let outcome =
      try
        let spec =
          match
            W.preset workload ~rate ~prompt_mean:prompt ~output_mean:output
          with
          | Some s -> s
          | None -> invalid_arg (Printf.sprintf "unknown workload %S" workload)
        in
        let reqs = W.generate ~seed ~n:requests spec in
        let result = F.run ~design ~max_batch ~noc env cfg reqs in
        Ok
          ( result,
            Elk_serve.Slo.of_result ?slo_ttft ?slo_itl ?window ~mem ~noc
              ~workload ~seed result )
      with Invalid_argument m -> Error m
    in
    match outcome with
    | Error m ->
        Format.eprintf "elk_cli serve: %s@." m;
        exit 1
    | Ok (result, report) ->
        Elk_serve.Slo.print report;
        Option.iter
          (fun path ->
            emit ~what:"SLO report" path (Elk_serve.Slo.to_json report ^ "\n"))
          json_out;
        let counters =
          Elk_obs.Timeseries.counter_tracks report.Elk_serve.Slo.series
            ~horizon:report.Elk_serve.Slo.makespan ()
        in
        write_trace ~extra:(F.chrome_events result @ counters) trace_out;
        write_metrics metrics_out
  in
  let workload_t =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Elk_serve.Workload.preset_names))
          "poisson"
      & info [ "workload" ]
          ~doc:"Arrival process: $(b,poisson), $(b,bursty) or $(b,diurnal).")
  in
  let rate_t =
    Arg.(
      value
      & opt (positive_float_conv ~expected:"a positive finite rate") 4.0
      & info [ "rate" ] ~doc:"Mean arrival rate, requests/second.")
  in
  let requests_t =
    Arg.(value & opt positive_conv 16 & info [ "requests" ] ~doc:"Number of requests to generate.")
  in
  let seed_t =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Workload seed.  The same seed gives a byte-identical request list \
             and SLO report, whatever the $(b,--jobs) count.")
  in
  let prompt_t =
    Arg.(value & opt positive_conv 128 & info [ "prompt" ] ~doc:"Mean prompt length, tokens.")
  in
  let output_t =
    Arg.(value & opt positive_conv 24 & info [ "output" ] ~doc:"Mean output length, tokens.")
  in
  let max_batch_t =
    Arg.(
      value & opt positive_conv 8 & info [ "max-batch" ] ~doc:"Largest batch the front-end forms.")
  in
  let slo_ttft_t =
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "slo-ttft" ] ~doc:"TTFT target in seconds; enables SLO attainment.")
  in
  let slo_itl_t =
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "slo-itl" ]
          ~doc:"Mean inter-token-latency target in seconds; enables SLO attainment.")
  in
  let window_t =
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Time-series window width in seconds (default: makespan/48).")
  in
  let mem_t =
    Arg.(
      value & flag
      & info [ "mem" ]
          ~doc:
            "Also record a per-core SRAM high-water gauge (the static demand \
             of the plans serving each batch) into the time series.")
  in
  let noc_t =
    Arg.(
      value & flag
      & info [ "noc" ]
          ~doc:
            "Also record a busiest-interconnect-link gauge (reservation \
             seconds on the hottest link of the plans serving each batch) \
             into the time series.")
  in
  let json_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ]
          ~doc:
            "Write the SLO report (with time series) as JSON to $(docv).  The \
             snapshot is $(b,elk trace diff)-comparable.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a synthetic request workload through the batching front-end \
          and report serving SLOs: TTFT/ITL percentiles, throughput, goodput, \
          queue depth over time.")
    Term.(
      const run $ model_t $ scale_t $ layer_factor_t $ env_t $ jobs_t
      $ no_cache_t $ design_t $ workload_t $ rate_t
      $ requests_t $ seed_t $ prompt_t $ output_t $ max_batch_t
      $ slo_ttft_t $ slo_itl_t $ window_t $ mem_t $ noc_t
      $ json_out_t $ metrics_out_t $ trace_out_t)

let () =
  let doc = "Elk: a DL compiler for inter-core connected AI chips with HBM." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "elk_cli" ~doc)
          ([ info_cmd; compile_cmd; compare_cmd; program_cmd; report_cmd ]
          @ List.map view_cmd views
          @ [ trace_cmd; profile_cmd; verify_cmd; lint_cmd; serve_cmd ])))
