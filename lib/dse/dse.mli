(** Design-space exploration harness (paper §6.4).

    Builds parameterized ICCA-chip environments — core count, topology,
    HBM bandwidth, interconnect bandwidth, compute capability — trains a
    cost model for each, and evaluates the five designs on the event-driven
    simulator.  Every sweep figure of the paper (Figs 19-24) is a loop
    over {!env} parameters calling {!evaluate}. *)

type env = { pod : Elk_arch.Arch.pod; ctx : Elk_partition.Partition.ctx }

val env :
  ?chips:int ->
  ?cores:int ->
  ?topology:[ `All_to_all | `Mesh | `Gpu ] ->
  ?hbm_bw_per_chip:float ->
  ?link_bw:float ->
  ?flops_scale:float ->
  ?sram_per_core:float ->
  unit ->
  env
(** Build an environment.  Defaults mirror {!Elk_arch.Arch.Presets.scaled_pod}:
    4 chips x 64 cores, all-to-all, 2.7 GB/s/core HBM, 5.5 GB/s links.
    [hbm_bw_per_chip] overrides the per-chip HBM bandwidth; [link_bw] the
    inter-core link bandwidth; [flops_scale] multiplies both per-core
    compute rates (Fig 24's x-axis).  The cost model is
    {!Elk_cost.Costmodel.for_chip} at its default seed: environments that
    differ only in interconnect or HBM share execution trees, and the
    process fits each distinct input once. *)

type eval = {
  design : Elk_baselines.Baselines.design;
  latency : float;  (** simulated on-chip makespan + inter-chip all-reduce. *)
  hbm_util : float;
  noc_util : float;
  tflops : float;  (** achieved pod-level TFLOP/s. *)
  bd : Elk.Timeline.breakdown;
  sim : Elk_sim.Sim.result option;  (** [None] for [Ideal]. *)
}

val evaluate :
  ?elk_options:Elk.Compile.options ->
  env ->
  Elk_model.Graph.t ->
  Elk_baselines.Baselines.design ->
  eval
(** Plan with the design's policy, then measure on the simulator (the
    [Ideal] roofline is analytic — it has no schedule to simulate).
    Elk-Full's plan is the survivor of {!Elk.Compile.candidates} with
    the lowest simulated total (the lowest candidate index on ties):
    the compiler's own search, scored by the simulator rather than the
    analytic timeline.  Like every emitted plan it passes
    {!Elk.Compile.gate}, so an installed verifier that flags it raises
    {!Elk.Compile.Rejected}; an unschedulable model raises
    {!Elk.Scheduler.Infeasible}. *)

val evaluate_all :
  ?elk_options:Elk.Compile.options ->
  env ->
  Elk_model.Graph.t ->
  eval list
(** All five designs, in {!Elk_baselines.Baselines.all} order. *)
