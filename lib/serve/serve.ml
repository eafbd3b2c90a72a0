module B = Elk_baselines.Baselines
module D = Elk_dse.Dse

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

let round_up v quantum = (v + quantum - 1) / quantum * quantum

let serve ?(design = B.Elk_full) ?(recompile_every = 64) ?(prefill = false) ?elk_options
    ?jobs ?(noc = false) env cfg ~batch ~prompt_ctx ~tokens =
  if tokens <= 0 || batch <= 0 || prompt_ctx <= 0 then
    invalid_arg "Serve.serve: nonpositive workload parameter";
  (* Every recompile in the loop goes through the shared pool; size it
     once up front so mid-generation recompiles reuse warm domains. *)
  Option.iter Elk_util.Pool.set_jobs jobs;
  if design = B.Ideal then invalid_arg "Serve.serve: Ideal has no executable plan";
  (* Percentile queries after the run must describe this run alone. *)
  Elk_obs.Metrics.reset_histogram "elk_serve_step_latency_seconds";
  let chips = env.D.pod.Elk_arch.Arch.chips in
  (* Cache of (plan context length -> (latency, compile seconds)). *)
  let plans = Hashtbl.create 8 in
  (* Peak static per-core SRAM demand across every plan this run
     compiles (prefill included): the Residency ledger's high water,
     read off the schedule at compile time — no extra simulation. *)
  let chip = Elk_partition.Partition.ctx_chip env.D.ctx in
  let highwater = ref 0. in
  let note_plan s =
    let ledger =
      Elk.Residency.of_schedule
        ~capacity:(Elk_arch.Arch.usable_sram_per_core chip)
        ~cores:chip.Elk_arch.Arch.cores s
    in
    highwater := Float.max !highwater ledger.Elk.Residency.high_water
  in
  (* Peak busy-time interconnect link across every plan this run
     simulates, from the per-link record ([~noc] only).  link_stats is
     canonically ordered, so a strict [>] keeps ties deterministic. *)
  let busiest_link = ref "" and link_busy = ref 0. in
  let note_noc (r : Elk_sim.Sim.result) =
    match r.Elk_sim.Sim.noc with
    | None -> ()
    | Some nt ->
        List.iter
          (fun s ->
            if s.Elk_sim.Noctrace.ls_busy > !link_busy then begin
              link_busy := s.Elk_sim.Noctrace.ls_busy;
              busiest_link := Elk_noc.Noc.link_name s.Elk_sim.Noctrace.ls_link
            end)
          (Elk_sim.Noctrace.link_stats nt)
  in
  (* One phase's simulated latency: plan its graph, simulate the plan,
     and add the inter-chip all-reduces. *)
  let latency_of phase =
    let graph = Elk_model.Zoo.build cfg phase in
    match B.plan ?elk_options env.D.ctx ~pod:env.D.pod graph design with
    | Some s ->
        note_plan s;
        let r = Elk_sim.Sim.run ~noc env.D.ctx s in
        note_noc r;
        r.Elk_sim.Sim.total
        +. Elk.Sharding.allreduce_time env.D.pod (Elk.Sharding.shard_graph ~chips graph)
    | None ->
        invalid_arg
          (Printf.sprintf "Serve.serve: design produced no %s plan"
             (match phase with
             | Elk_model.Zoo.Decode _ -> "decode"
             | Elk_model.Zoo.Prefill _ -> "prefill"))
  in
  let plan_for ctx_len =
    match Hashtbl.find_opt plans ctx_len with
    | Some entry -> (entry, false)
    | None ->
        Elk_obs.Metrics.incr "elk_serve_recompiles_total"
          ~help:"Decode plans compiled as the KV context grew";
        Elk_obs.Logger.debug ~src:"serve"
          ~kvs:[ ("plan_ctx", string_of_int ctx_len) ]
          "recompiling decode plan";
        let entry =
          Elk_obs.Span.with_span "serve-plan"
            ~attrs:[ ("plan_ctx", string_of_int ctx_len) ]
            (fun () ->
              let t0 = Unix.gettimeofday () in
              let latency = latency_of (Elk_model.Zoo.Decode { batch; ctx = ctx_len }) in
              (latency, Unix.gettimeofday () -. t0))
        in
        Hashtbl.add plans ctx_len entry;
        (entry, true)
  in
  let extra_compile = ref 0. in
  let prefill_latency =
    if not prefill then 0.
    else begin
      Elk_obs.Span.with_span "serve-prefill-plan"
        ~attrs:[ ("seq", string_of_int prompt_ctx) ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let latency = latency_of (Elk_model.Zoo.Prefill { batch; seq = prompt_ctx }) in
      extra_compile := Unix.gettimeofday () -. t0;
      latency
    end
  in
  let steps = ref [] in
  for token = 0 to tokens - 1 do
    let ctx = prompt_ctx + token in
    let plan_ctx = round_up (max 1 ctx) recompile_every in
    let (latency, _), recompiled = plan_for plan_ctx in
    Elk_obs.Metrics.observe "elk_serve_step_latency_seconds" latency
      ~help:"Simulated per-token decode latency";
    steps := { token; ctx; latency; recompiled } :: !steps
  done;
  let steps = List.rev !steps in
  let total_time = List.fold_left (fun a s -> a +. s.latency) 0. steps in
  let compile_time = !extra_compile +. Hashtbl.fold (fun _ (_, c) a -> a +. c) plans 0. in
  let tokens_per_second =
    if total_time > 0. then float_of_int tokens /. total_time else 0.
  in
  Elk_obs.Metrics.set "elk_serve_tokens_per_second" tokens_per_second
    ~help:"Simulated decode throughput of the last serving run";
  Elk_obs.Logger.info ~src:"serve"
    ~kvs:
      [
        ("tokens", string_of_int tokens);
        ("tok_per_s", Printf.sprintf "%.1f" tokens_per_second);
        ("recompilations", string_of_int (Hashtbl.length plans));
        ("compile_s", Printf.sprintf "%.2f" compile_time);
      ]
    "serving run complete";
  {
    steps;
    prefill_latency;
    total_time;
    compile_time;
    tokens_per_second;
    recompilations = Hashtbl.length plans;
    highwater = !highwater;
    busiest_link = !busiest_link;
    link_busy = !link_busy;
  }

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
