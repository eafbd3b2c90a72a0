open Elk_arch
module B = Elk_baselines.Baselines

type env = { pod : Arch.pod; ctx : Elk_partition.Partition.ctx }

let env ?(chips = 4) ?(cores = 64) ?(topology = `All_to_all) ?hbm_bw_per_chip ?link_bw
    ?(flops_scale = 1.) ?sram_per_core () =
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
  let cost = Elk_cost.Costmodel.for_chip chip in
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

(* For Elk-Full, the survivors of the compiler's order search are
   compared on the event-driven simulator rather than on the analytic
   timeline — the simulator resolves the interconnect rush hours that
   reordering targets (§4.4), which the fluid analytic model smooths
   over.  The timeline's lower bound does not bound a simulated total, so
   every survivor is simulated; the ordered fold keeps ties on the lowest
   candidate index.  The winner is an emitted plan: it passes the
   compiler's gate.  Returns the winner's simulation. *)
let elk_full_sim env graph options =
  let cg = Elk.Compile.chip_graph env.ctx ~pod:env.pod graph in
  let { Elk.Compile.survivors; _ } = Elk.Compile.candidates ~options env.ctx cg in
  let s, r =
    match
      Elk_util.Pool.map (Elk_util.Pool.get ())
        (fun (s, _) -> (s, Elk_sim.Sim.run env.ctx s))
        survivors
    with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun ((_, br) as best) ((_, r) as c) ->
            if r.Elk_sim.Sim.total < br.Elk_sim.Sim.total then c else best)
          first rest
  in
  Elk.Compile.gate env.ctx ~model:(Elk_model.Graph.name graph) s (Elk.Program.of_schedule s);
  r

let evaluate ?elk_options env graph design =
  Elk_obs.Span.with_span "dse-eval"
    ~attrs:[ ("design", B.name design); ("model", Elk_model.Graph.name graph) ]
  @@ fun () ->
  Elk_obs.Metrics.incr "elk_dse_evals_total" ~help:"Design-point evaluations";
  let chips = env.pod.Arch.chips in
  let sim =
    match design with
    | B.Elk_full ->
        Some
          (elk_full_sim env graph
             (Option.value elk_options ~default:Elk.Compile.default_options))
    | _ ->
        Option.map (Elk_sim.Sim.run env.ctx)
          (B.plan ?elk_options env.ctx ~pod:env.pod graph design)
  in
  match sim with
  | Some r ->
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
