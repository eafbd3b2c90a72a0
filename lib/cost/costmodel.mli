(** Elk's trained cost model (paper §4.3).

    For each operator kind, random tiles are "profiled" on the synthetic
    device ({!Device.measured_exec_time}) and a {!Linear_tree} is fit on
    tile-shape features; inter-core transfers get a model over (bytes,
    hops).  The compiler then only ever consults the trained predictors —
    prediction error (Fig 12) flows into every scheduling decision, as it
    would with a real profiled device.  HBM preload times come from a
    roofline over the {!Elk_hbm.Hbm} channel model. *)

type t

val train : ?seed:int -> ?samples_per_kind:int -> Elk_arch.Arch.chip -> t
(** Profile-and-fit for one chip, for every kind the model zoo emits: a
    fresh fit on every call (see {!for_chip} for the memoized one).
    [samples_per_kind] defaults to 600.  The result is immutable, so pool
    domains may share it. *)

val for_chip : ?seed:int -> ?samples_per_kind:int -> Elk_arch.Arch.chip -> t
(** The model {!train} would return, fitting only trees this process has
    not fitted yet.  The execution trees are memoized by what their fit
    reads of the chip (SRAM size and net buffer, matmul and vector rates,
    SRAM bandwidth) and the transfer tree by its own (the topology's
    longest route, the link's latency and bandwidth), each with [seed] and
    [samples_per_kind]; chips that differ only in their interconnect, or
    only in HBM, share execution trees.  The HBM table is rebuilt and the
    model answers {!chip} with the caller's chip, so its {!fingerprint}
    equals a fresh {!train}'s.  Safe to call from several domains; fits
    run outside the memo's lock.  Each fit (a miss here, and each half of
    {!train}) runs in an {!Elk_obs.Span} named [costmodel.train]. *)

val clear_memo : unit -> unit
(** Forget every tree {!for_chip} has kept, so its next call fits again
    ([Elk.Compilecache.reset] calls this). *)

val trees : t -> (string * Linear_tree.t) list * Linear_tree.t
(** The fitted execution trees by kind, and the transfer tree. *)

val chip : t -> Elk_arch.Arch.chip
val kinds : t -> string list

val fingerprint : t -> string
(** Behavioral digest of the trained model: the chip's
    {!Elk_arch.Arch.fingerprint} plus bit-exact predictions on a fixed
    probe set (per-kind execution times, transfer routes, HBM reads).
    Retraining with different data changes the digest — the cost-model
    component of the cross-compile cache keys. *)

val features : kind:string -> iter:int array -> float array
(** Feature vector used by the per-kind trees, nine entries: the first 4
    tile extents (1 past the tile's rank), total points, FLOPs, SRAM
    bytes, and two 16-alignment indicators (1 or 0): the second extent
    and the last one. *)

val predict_exec : t -> kind:string -> iter:int array -> float
(** Predicted per-core execution time of one tile.  Falls back to the
    analytic device model for kinds without a trained tree; never
    negative. *)

val predict_transfer : t -> hops:int -> bytes:float -> float
(** Predicted uncontended transfer time for a route of [hops] links. *)

val hbm_time : t -> bytes:float -> float
(** Roofline preload time for [bytes] read sequentially at tensor
    granularity from this chip's HBM: [bytes] over the effective bandwidth
    of a read of the nearest power of two bytes (from the channel model,
    which derates small reads; {!train} tabulates it once). *)

val exec_accuracy :
  ?seed:int -> t -> kind:string -> n:int -> (float * float) list
(** [(measured, predicted)] pairs on [n] fresh random tile shapes of a
    kind — the data behind Fig 12. *)

val transfer_accuracy : ?seed:int -> t -> n:int -> (float * float) list
(** Same for inter-core transfers. *)

val ideal_exec_time : Elk_arch.Arch.chip -> Elk_tensor.Opspec.t -> cores:int -> float
(** Lower-bound on-chip execution time of a whole operator split perfectly
    over [cores] cores with zero communication — the per-operator term of
    the [Ideal] roofline baseline (§6.1). *)

val random_tile : Elk_util.Xrng.t -> chip:Elk_arch.Arch.chip -> kind:string -> int array
(** A random tile shape of the given kind that fits in one core's SRAM —
    the shape distribution used for training and accuracy evaluation. *)
