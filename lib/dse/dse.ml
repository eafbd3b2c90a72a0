open Elk_arch
module B = Elk_baselines.Baselines

type env = { pod : Arch.pod; ctx : Elk_partition.Partition.ctx }

let env ?(chips = 4) ?(cores = 64) ?(topology = `All_to_all) ?hbm_bw_per_chip ?link_bw
    ?(flops_scale = 1.) ?sram_per_core ?(cost_seed = 42) () =
  let base =
    match topology with
    | `Gpu ->
        let c = Arch.Presets.gpu_like_chip ~cores () in
        (match sram_per_core with
        | Some s -> { c with Arch.sram_per_core = s }
        | None -> c)
    | (`All_to_all | `Mesh) as topology_kind ->
        Arch.Presets.scaled_chip ~cores ~topology_kind ?sram_per_core ()
  in
  let chip =
    {
      base with
      Arch.hbm_bandwidth = Option.value hbm_bw_per_chip ~default:base.Arch.hbm_bandwidth;
      intercore_link =
        {
          base.Arch.intercore_link with
          Arch.bandwidth =
            Option.value link_bw ~default:base.Arch.intercore_link.Arch.bandwidth;
        };
      matmul_flops_per_core = base.Arch.matmul_flops_per_core *. flops_scale;
      vector_flops_per_core = base.Arch.vector_flops_per_core *. flops_scale;
    }
  in
  let interchip_ratio = Elk_util.Units.gbps 640. /. Arch.aggregate_intercore_bw Arch.Presets.ipu_mk2_full in
  let pod = { Arch.chips; chip; interchip_bandwidth = interchip_ratio *. Arch.aggregate_intercore_bw chip } in
  let cost = Elk_cost.Costmodel.train ~seed:cost_seed chip in
  { pod; ctx = Elk_partition.Partition.make_ctx cost }

type eval = {
  design : B.design;
  latency : float;
  hbm_util : float;
  noc_util : float;
  tflops : float;
  bd : Elk.Timeline.breakdown;
  sim : Elk_sim.Sim.result option;
}

(* For Elk-Full, candidate preload orders are compared on the event-driven
   simulator rather than only on the analytic timeline — the simulator
   resolves the interconnect rush hours that reordering targets (§4.4),
   which the fluid analytic model smooths over. *)
let plan_elk_full_sim env graph (options : Elk.Compile.options) =
  let chips = env.pod.Arch.chips in
  let cg = Elk.Opsplit.split_graph env.ctx (Elk.Sharding.shard_graph ~chips graph) in
  let orders =
    if options.Elk.Compile.reorder then
      Elk.Reorder.candidate_orders ~max_orders:options.Elk.Compile.max_orders
        ~max_edit_distance:options.Elk.Compile.max_edit_distance env.ctx cg
    else [ Array.init (Elk_model.Graph.length cg) (fun i -> i) ]
  in
  (* Same shape as the search in [Compile.compile]: the head order runs
     sequentially (deterministic baseline, warm memo caches), the rest
     fan out on the shared domain pool under the static branch-and-bound
     scheduler cutoff derived from the baseline.  Candidates here are
     compared on {e simulated} totals, which the analytic lower bound
     does not provably bound — so, unlike [Compile.compile], there is no
     incumbent-based evaluation skip: it could prune a simulated winner
     and make the result depend on worker timing.  The ordered fold keeps
     ties on the lowest candidate index. *)
  let schedule_order ?cutoff order =
    try
      Some
        (Elk.Scheduler.run ~order ~max_preload:options.Elk.Compile.max_preload ?cutoff
           env.ctx cg)
    with
    | Elk.Scheduler.Infeasible _ -> None
    | Elk.Scheduler.Pruned ->
        Elk_obs.Metrics.incr "elk_dse_orders_pruned_total"
          ~help:"Candidate preload orders pruned in the simulator-backed order search";
        None
  in
  match orders with
  | [] -> None
  | first :: rest ->
      let base =
        match schedule_order first with
        | None -> None
        | Some s -> Some (s, Elk_sim.Sim.run env.ctx s)
      in
      let cutoff =
        match base with
        | Some (s, _) when options.Elk.Compile.prune_margin >= 0. ->
            Elk.Timeline.lower_bound env.ctx s
            *. (1. +. options.Elk.Compile.prune_margin)
        | _ -> infinity
      in
      let candidates =
        Elk_util.Pool.map (Elk_util.Pool.get ())
          (fun order ->
            match schedule_order ~cutoff order with
            | None -> None
            | Some s ->
                (* Deterministic skip of the (expensive) simulation when
                   the completed schedule's stall-free bound already blows
                   the static cutoff. *)
                if Elk.Timeline.lower_bound env.ctx s > cutoff then begin
                  Elk_obs.Metrics.incr "elk_dse_orders_pruned_total"
                    ~help:
                      "Candidate preload orders pruned in the simulator-backed order search";
                  None
                end
                else Some (s, Elk_sim.Sim.run env.ctx s))
          rest
      in
      let best =
        List.fold_left
          (fun best c ->
            match c with
            | None -> best
            | Some (s, r) -> (
                match best with
                | Some (_, br) when br.Elk_sim.Sim.total <= r.Elk_sim.Sim.total -> best
                | _ -> Some (s, r)))
          base candidates
      in
      (* The winner is an emitted plan: it passes the compiler's gate. *)
      Option.iter
        (fun (s, _) ->
          Elk.Compile.gate env.ctx ~model:(Elk_model.Graph.name graph) s
            (Elk.Program.of_schedule s))
        best;
      best

let evaluate ?elk_options env graph design =
  Elk_obs.Span.with_span "dse-eval"
    ~attrs:[ ("design", B.name design); ("model", Elk_model.Graph.name graph) ]
  @@ fun () ->
  Elk_obs.Metrics.incr "elk_dse_evals_total" ~help:"Design-point evaluations";
  let chips = env.pod.Arch.chips in
  let elk_full_sim =
    if design = B.Elk_full then
      plan_elk_full_sim env graph
        (Option.value elk_options ~default:Elk.Compile.default_options)
    else None
  in
  match
    match elk_full_sim with
    | Some (s, _) -> Some s
    | None -> B.plan ?elk_options env.ctx ~pod:env.pod graph design
  with
  | Some s ->
      let r =
        match elk_full_sim with Some (_, r) -> r | None -> Elk_sim.Sim.run env.ctx s
      in
      let allreduce =
        Elk.Sharding.allreduce_time env.pod (Elk.Sharding.shard_graph ~chips graph)
      in
      {
        design;
        latency = r.Elk_sim.Sim.total +. allreduce;
        hbm_util = r.Elk_sim.Sim.hbm_util;
        noc_util = r.Elk_sim.Sim.noc_util;
        tflops = r.Elk_sim.Sim.achieved_flops *. float_of_int chips /. 1e12;
        bd = r.Elk_sim.Sim.bd;
        sim = Some r;
      }
  | None ->
      let o = B.run env.ctx ~pod:env.pod graph design in
      {
        design;
        latency = o.B.latency;
        hbm_util = o.B.hbm_util;
        noc_util = o.B.noc_util;
        tflops = o.B.achieved_flops /. 1e12;
        bd =
          {
            Elk.Timeline.preload_only = 0.;
            execute_only = 0.;
            overlapped = o.B.latency;
            interconnect = 0.;
          };
        sim = None;
      }

let evaluate_all ?elk_options env graph =
  (* Design points are independent; fan them out on the shared pool.
     [Pool.map] preserves order, and a nested order search inside an
     Elk-Full evaluation simply runs inline on its worker. *)
  Elk_util.Pool.map (Elk_util.Pool.get ()) (evaluate ?elk_options env graph) B.all
