(** Spatial pipeline execution model (paper §7, "Apply Elk to other
    execution models").

    SambaNova-style chips can run different operators on {e different}
    sets of cores simultaneously: the model is cut into pipeline stages,
    each stage's weights stay stationary on its cores, and activations
    flow stage to stage.  Throughput improves (all stages busy on
    different requests) at the cost of per-request latency, and — exactly
    as the paper argues — the §2.3 resource constraints reappear: a stage
    whose weights exceed its cores' SRAM must swap them from HBM, and the
    interconnect carries both the stage-to-stage activation flow and that
    swap traffic.

    This module implements the §7 scheduling space: contiguous assignment
    of operators to stages (optimal via dynamic programming on the
    bottleneck), proportional core allocation, per-stage residency
    analysis, and steady-state throughput/latency estimates, so the
    tradeoff against Elk's time-multiplexed execution can be quantified
    (see the [pipeline] benchmark). *)

type stage = {
  ops : int list;  (** operator ids, in execution order. *)
  cores : int;  (** cores dedicated to this stage. *)
  compute_time : float;  (** time to process one request through the stage. *)
  weight_bytes : float;  (** HBM-resident bytes the stage must hold. *)
  resident : bool;  (** do the weights fit in the stage's SRAM? *)
  swap_time : float;  (** per-request weight-swap time when not resident. *)
}

type plan = {
  stages : stage list;
  bottleneck : float;  (** slowest stage's time incl. swap — the cycle time. *)
  latency : float;  (** one request's end-to-end time (sum of stages). *)
  throughput : float;  (** requests/second at steady state. *)
}

val plan :
  Elk_partition.Partition.ctx -> Elk_model.Graph.t -> stages:int -> plan
(** Cut the graph into [stages] contiguous stages minimizing the
    bottleneck compute time (exact DP), allocate cores proportionally to
    stage work, and price weight swapping for non-resident stages.
    Raises [Invalid_argument] if [stages] is not in [1, min (ops, cores)]. *)

val best_stage_count : Elk_partition.Partition.ctx -> Elk_model.Graph.t -> int * plan
(** The §7 scheduling question: the stage count, at most 8, maximizing
    throughput (ties broken toward lower latency). *)

val pp_plan : Format.formatter -> plan -> unit
