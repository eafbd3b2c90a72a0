(** Synthetic per-core device: the ground truth that stands in for running
    tiles on real IPU cores.

    The paper profiles randomly shaped tiles on the target device and fits
    a cost model to the measurements (§4.3, "Cost model for execution
    time").  Without hardware we substitute an analytic microarchitectural
    model — pipeline-utilization-derated peak FLOP/s bounded by local SRAM
    bandwidth, plus a fixed kernel overhead — and expose two views of it:

    - {!exec_time}: the deterministic model (what the "hardware" truly
      does in our universe);
    - {!measured_exec_time}: the same with shape-keyed pseudo-measurement
      noise (what profiling would observe).

    Elk's compiler never reads these directly; it uses the learned
    {!Costmodel} fit on noisy measurements, so prediction error propagates
    into scheduling decisions exactly as on real hardware (Fig 12). *)

val tile_bytes : kind:string -> iter:int array -> float
(** Per-core SRAM bytes touched by a tile of the given kind: inputs plus
    outputs at fp16.  Used both here and for execution-space sizing. *)

val tile_flops : kind:string -> iter:int array -> float
(** FLOPs of one tile. *)

val is_matmul_kind : string -> bool
(** Kinds executed on the matmul pipeline (["matmul"],
    ["batch_matmul"]); everything else uses the vector pipeline. *)

val exec_time : Elk_arch.Arch.chip -> kind:string -> iter:int array -> float
(** Deterministic per-core execution time of one tile: fixed launch
    overhead + max(compute time at derated peak, SRAM-bandwidth time).
    Small tiles are penalized by pipeline fill; badly aligned matmul tiles
    by a vector-width factor.  Raises [Invalid_argument] on an empty or
    nonpositive iteration vector. *)

val measured_exec_time : Elk_arch.Arch.chip -> kind:string -> iter:int array -> float
(** {!exec_time} scaled by deterministic shape-keyed noise, uniform in
    [0.94, 1.06]. *)

val measured_transfer_time :
  Elk_noc.Noc.t -> src:Elk_noc.Noc.node -> dst:Elk_noc.Noc.node -> bytes:float -> float
(** Uncontended transfer time with the same kind of measurement noise. *)
