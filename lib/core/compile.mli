(** End-to-end compilation driver: the public entry point of Elk.

    [compile] shards the model across the pod's chips, generates candidate
    preload orders (§4.4), schedules each with the inductive scheduler
    (§4.2) + cost-aware allocator (§4.3), evaluates candidates with the
    analytic timeline, and returns the best plan together with its device
    program (§4.5). *)

type options = {
  reorder : bool;  (** enable preload-order permutation (Elk-Full). *)
  max_orders : int;  (** candidate preload orders to evaluate. *)
  max_edit_distance : int;  (** Kendall-tau bound on per-layer reorders. *)
  max_preload : int;  (** cap on per-operator preload numbers. *)
  prune_margin : float;
      (** slack of the branch-and-bound cutoff, the execution order's
          stall-free lower bound ({!Timeline.lower_bound}) stretched by
          this fraction.  A candidate order is abandoned mid-induction
          once the scheduler's running estimate exceeds the cutoff, and
          is not evaluated when its own stall-free lower bound does.  The
          scheduler's estimate is no lower bound of the stall-free
          makespan (up to 3.6% above it on the zoo); the margin absorbs
          that gap.  Negative disables the cutoff (the sound incumbent skip inside
          the search still applies).  The cutoff is derived solely from
          the always-evaluated baseline order, so pruning — and the
          chosen plan — is identical whatever the jobs count. *)
}

val default_options : options
(** Elk-Full: reordering on, 24 orders, edit distance 6, prune margin
    0.25.  [compile] never fuses: the paper's Elk treats the §8
    pointwise-fusion pass as an optional compatibility step, so a caller
    that wants it compiles [Fusion.fuse graph]. *)

val dyn_options : options
(** Elk-Dyn: scheduling and allocation only, no reordering (§6.1). *)

type t = {
  pod : Elk_arch.Arch.pod;
  graph : Elk_model.Graph.t;  (** original model graph. *)
  chip_graph : Elk_model.Graph.t;  (** per-chip sharded graph. *)
  schedule : Schedule.t;
  timeline : Timeline.result;
  program : Program.t;
  allreduce : float;  (** inter-chip all-reduce time per forward pass. *)
  orders_tried : int;
  compile_seconds : float;  (** wall-clock compilation time. *)
}

exception Rejected of string
(** Raised by {!compile} when the installed static verifier flags the
    compiled plan with an [Error]-severity diagnostic: the compiler
    refuses to emit a plan that static analysis rejects. *)

type verifier =
  Elk_partition.Partition.ctx -> Schedule.t -> Program.t -> (unit, string) result
(** A static plan verifier: [Error msg] means the plan must not be
    emitted.  Warnings are the verifier's own business (it is expected to
    log them). *)

val set_verifier : verifier option -> unit
(** Install (or clear) the verifier {!compile} runs on every plan before
    returning it.  [Elk_verify] installs its standard rule suite here at
    link time; the indirection exists because the verifier library sits
    above this one in the build graph. *)

val verifier : unit -> verifier option

val gate :
  Elk_partition.Partition.ctx -> model:string -> Schedule.t -> Program.t -> unit
(** Run the installed verifier on a plan about to be emitted: on [Error]
    log it (naming [model]) and raise {!Rejected}; no-op when no verifier
    is installed.  {!compile} gates every plan it returns with it, and so
    does [Dse]'s simulator-backed Elk-Full order search. *)

val compile :
  ?options:options ->
  Elk_partition.Partition.ctx ->
  pod:Elk_arch.Arch.pod ->
  Elk_model.Graph.t ->
  t
(** Raises {!Scheduler.Infeasible} if the model cannot be scheduled even
    in execution order (some operator exceeds per-core SRAM), and
    {!Rejected} if the installed verifier flags the winning plan.

    Candidate orders beyond the first are scheduled and evaluated on the
    shared {!Elk_util.Pool} (size it with [Elk_util.Pool.set_jobs] or
    [ELK_JOBS]); the returned plan is byte-identical whatever the jobs
    count — ties between equal-makespan orders always resolve to the
    lowest candidate index, and pruning uses bounds that cannot exclude
    a winner.

    While {!Compilecache.enabled}, compiles are served from a whole-plan
    cache keyed by a digest of (context fingerprint, options, pod, full
    graph content): a warm compile of identical inputs returns the
    previously computed plan — byte-identical by construction — in
    [O(digest)] time, and an on-disk store ([ELK_COMPILE_CACHE_DIR])
    extends this across processes.  Cache misses reuse the partition
    memos of earlier compiles under the same context fingerprint.
    Disable with [--no-compile-cache], [ELK_COMPILE_CACHE=0], or
    {!Compilecache.set_enabled}[ false] to recover the exact uncached
    pipeline. *)

val latency : t -> float
(** End-to-end forward latency: on-chip makespan + inter-chip
    all-reduces.  For a decode graph this is the per-token latency. *)

val pp_summary : Format.formatter -> t -> unit
