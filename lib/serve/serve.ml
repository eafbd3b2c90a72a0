module B = Elk_baselines.Baselines
module D = Elk_dse.Dse
module Zoo = Elk_model.Zoo

type step = { token : int; ctx : int; latency : float; recompiled : bool }

type run = {
  steps : step list;
  prefill_latency : float;
  total_time : float;
  compile_time : float;
  tokens_per_second : float;
  recompilations : int;
  highwater : float;
  busiest_link : string;
  link_busy : float;
}

(* What planning and simulating one phase gives. *)
type outcome = {
  o_latency : float;  (* simulated latency plus the inter-chip all-reduces *)
  o_highwater : float;  (* the plan's static per-core SRAM high water *)
  o_link : string * float;  (* busiest link and its reservation seconds *)
}

(* The first strictly busiest (link, seconds) pair; ("", 0.) if none. *)
let busiest =
  List.fold_left
    (fun ((_, b) as best) ((_, b') as l) -> if b' > b then l else best)
    ("", 0.)

(* One run's phase outcomes, and how to plan a missing phase: its
   outcome and the wall-clock seconds [B.plan] took. *)
type memo = {
  phases : (Zoo.phase, outcome) Hashtbl.t;
  plan : Zoo.phase -> outcome * float;
}

let memo ?(design = B.Elk_full) ?elk_options ?(noc = false) env cfg =
  if design = B.Ideal then invalid_arg "Serve.serve: Ideal has no executable plan";
  (* Percentile queries after the run must describe this run alone. *)
  Elk_obs.Metrics.reset_histogram "elk_serve_step_latency_seconds";
  let ctx = env.D.ctx and pod = env.D.pod in
  let plan phase =
    let graph = Zoo.build cfg phase in
    let t0 = Unix.gettimeofday () in
    match B.plan ?elk_options ctx ~pod graph design with
    | None ->
        invalid_arg
          (Printf.sprintf "Serve.serve: design produced no %s plan"
             (match phase with Zoo.Decode _ -> "decode" | Zoo.Prefill _ -> "prefill"))
    | Some s ->
        let plan_s = Unix.gettimeofday () -. t0 in
        let r = Elk_sim.Sim.run ~noc ctx s in
        let links =
          Option.fold ~none:[] ~some:Elk_sim.Noctrace.link_stats r.Elk_sim.Sim.noc
        in
        let chips = pod.Elk_arch.Arch.chips in
        ( {
            o_latency =
              r.Elk_sim.Sim.total
              +. Elk.Sharding.allreduce_time pod (Elk.Sharding.shard_graph ~chips graph);
            o_highwater = Elk.Residency.high_water s;
            o_link =
              busiest
                (List.map
                   (fun l ->
                     Elk_sim.Noctrace.(Elk_noc.Noc.link_name l.ls_link, l.ls_busy))
                   links);
          },
          plan_s )
  in
  { phases = Hashtbl.create 16; plan }

let round_up v quantum = (v + quantum - 1) / quantum * quantum

let observe_step latency =
  Elk_obs.Metrics.observe "elk_serve_step_latency_seconds" latency
    ~help:"Simulated per-token decode latency"

let generate ?(recompile_every = 64) ?(prefill = false) m ~batch ~prompt_ctx ~tokens =
  if tokens <= 0 || batch <= 0 || prompt_ctx <= 0 then
    invalid_arg "Serve.serve: nonpositive workload parameter";
  let compile_time = ref 0. in
  let outcome phase =
    match Hashtbl.find_opt m.phases phase with
    | Some o -> o
    | None ->
        let span, attrs =
          match phase with
          | Zoo.Decode { ctx; _ } ->
              Elk_obs.Metrics.incr "elk_serve_recompiles_total"
                ~help:"Decode phases planned, once per phase per serving run";
              Elk_obs.Logger.debug ~src:"serve"
                ~kvs:[ ("plan_ctx", string_of_int ctx) ]
                "recompiling decode plan";
              ("serve-plan", [ ("plan_ctx", string_of_int ctx) ])
          | Zoo.Prefill { seq; _ } ->
              ("serve-prefill-plan", [ ("seq", string_of_int seq) ])
        in
        let o, plan_s = Elk_obs.Span.with_span span ~attrs (fun () -> m.plan phase) in
        compile_time := !compile_time +. plan_s;
        Hashtbl.add m.phases phase o;
        o
  in
  let prefill_phase =
    if prefill then [ outcome (Zoo.Prefill { batch; seq = prompt_ctx }) ] else []
  in
  (* Contexts round up to the next [recompile_every] boundary, so shapes
     always suffice and one decode plan serves a run of steps. *)
  let plan_ctx token = round_up (max 1 (prompt_ctx + token)) recompile_every in
  let decode =
    List.map
      (fun ctx -> (ctx, outcome (Zoo.Decode { batch; ctx })))
      (List.sort_uniq compare (List.init tokens plan_ctx))
  in
  let steps =
    List.init tokens (fun token ->
        let ctx = plan_ctx token in
        {
          token;
          ctx = prompt_ctx + token;
          latency = (List.assoc ctx decode).o_latency;
          recompiled = token = 0 || plan_ctx (token - 1) <> ctx;
        })
  in
  let total_time = List.fold_left (fun a s -> a +. s.latency) 0. steps in
  let tokens_per_second =
    if total_time > 0. then float_of_int tokens /. total_time else 0.
  in
  Elk_obs.Metrics.set "elk_serve_tokens_per_second" tokens_per_second
    ~help:"Simulated decode throughput of the last generation";
  Elk_obs.Logger.info ~src:"serve"
    ~kvs:
      [
        ("tokens", string_of_int tokens);
        ("tok_per_s", Printf.sprintf "%.1f" tokens_per_second);
        ("recompilations", string_of_int (List.length decode));
        ("compile_s", Printf.sprintf "%.2f" !compile_time);
      ]
    "generation complete";
  (* Peaks over the phases this generation ran, prefill first. *)
  let ran = prefill_phase @ List.map snd decode in
  let busiest_link, link_busy = busiest (List.map (fun o -> o.o_link) ran) in
  {
    steps;
    prefill_latency = (match prefill_phase with [ o ] -> o.o_latency | _ -> 0.);
    total_time;
    compile_time = !compile_time;
    tokens_per_second;
    recompilations = List.length decode;
    highwater = List.fold_left (fun a o -> Float.max a o.o_highwater) 0. ran;
    busiest_link;
    link_busy;
  }

let serve ?design ?recompile_every ?prefill ?elk_options ?jobs ?noc env cfg ~batch
    ~prompt_ctx ~tokens =
  (* Every phase planned in the run goes through the shared pool; size
     it once up front so its plans reuse warm domains. *)
  Option.iter Elk_util.Pool.set_jobs jobs;
  let r =
    generate ?recompile_every ?prefill
      (memo ?design ?elk_options ?noc env cfg)
      ~batch ~prompt_ctx ~tokens
  in
  List.iter (fun s -> observe_step s.latency) r.steps;
  r

let time_to_first_token r =
  r.prefill_latency +. (match r.steps with s :: _ -> s.latency | [] -> 0.)

let mean_latency r =
  match r.steps with
  | [] -> 0.
  | steps -> r.total_time /. float_of_int (List.length steps)

let last_latency r =
  match List.rev r.steps with [] -> 0. | s :: _ -> s.latency

(* Recompute throughput from the steps actually recorded rather than
   trusting the stored field: safe on synthetic/truncated runs where
   [steps] is empty or [total_time] is 0. *)
let tokens_per_second r =
  match r.steps with
  | [] -> 0.
  | steps ->
      if r.total_time > 0. then float_of_int (List.length steps) /. r.total_time
      else 0.

let pp_run fmt r =
  Format.fprintf fmt
    "%d tokens in %a (%.0f tok/s), %d plan(s) compiled in %.2fs, latency %a -> %a"
    (List.length r.steps) Elk_util.Units.pp_time r.total_time r.tokens_per_second
    r.recompilations r.compile_time Elk_util.Units.pp_time
    (match r.steps with [] -> 0. | s :: _ -> s.latency)
    Elk_util.Units.pp_time (last_latency r)
