(** End-to-end compilation driver: the public entry point of Elk.

    [compile] shards the model across the pod's chips, generates candidate
    preload orders (§4.4), schedules each with the inductive scheduler
    (§4.2) + cost-aware allocator (§4.3), evaluates candidates with the
    analytic timeline, and returns the best plan together with its device
    program (§4.5).  The search up to the score is {!candidates}, which
    [Dse] shares to score the same survivors on the simulator. *)

type options = {
  max_orders : int;
      (** candidate preload orders to evaluate; at most 1 is the execution
          order alone, no preload-order permutation (Elk-Dyn). *)
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
          that gap.  Negative disables the cutoff ({!compile}'s sound
          lower-bound skip still applies).  The cutoff is derived solely
          from the always-scheduled baseline order, so pruning — and the
          chosen plan — is identical whatever the jobs count. *)
}

val default_options : options
(** Elk-Full: 24 orders, edit distance 6, prune margin
    0.25.  [compile] never fuses: the paper's Elk treats the §8
    pointwise-fusion pass as an optional compatibility step, so a caller
    that wants it compiles [Fusion.fuse graph]. *)

val dyn_options : options
(** Elk-Dyn: scheduling and allocation only, no reordering (§6.1):
    [default_options] with [max_orders = 1]. *)

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
    does [Dse]'s simulator-scored Elk-Full. *)

val chip_graph :
  Elk_partition.Partition.ctx -> pod:Elk_arch.Arch.pod -> Elk_model.Graph.t ->
  Elk_model.Graph.t
(** One chip's share of a model: the graph sharded across the pod's
    chips ({!Sharding.shard_graph}), then op-split to fit a core
    ({!Opsplit.split_graph}).  What {!compile} and every baseline
    schedule. *)

type candidates = {
  survivors : (Schedule.t * float) list;
      (** scheduled candidate orders that survive the cutoff, in
          candidate order (the execution order first when it
          schedules), each with its
          {!Timeline.lower_bound}; never empty. *)
  tried : int;  (** candidate orders the scheduler completed. *)
}

val candidates :
  ?options:options -> Elk_partition.Partition.ctx -> Elk_model.Graph.t -> candidates
(** The preload-order search up to the score, on a {!chip_graph}:
    generate the candidate orders ({!Reorder.candidate_orders}, or the
    execution order alone when [max_orders <= 1]), schedule the head
    sequentially, derive the cutoff from its lower bound (see
    [prune_margin]) and schedule the other orders on the shared
    {!Elk_util.Pool}, dropping any whose lower bound exceeds the cutoff.
    The survivors are identical whatever the jobs count.  Counts
    [elk_compile_orders_{tried,infeasible,pruned}_total].  When no order
    schedules, the execution order is re-run at the default
    [max_preload]: it raises {!Scheduler.Infeasible}, or is the one
    survivor with [tried = 1]. *)

val compile :
  ?options:options ->
  Elk_partition.Partition.ctx ->
  pod:Elk_arch.Arch.pod ->
  Elk_model.Graph.t ->
  t
(** Raises {!Scheduler.Infeasible} if the model cannot be scheduled even
    in execution order (some operator exceeds per-core SRAM), and
    {!Rejected} if the installed verifier flags the winning plan.

    The survivors of {!candidates} (scheduled on the shared
    {!Elk_util.Pool}; size it with [Elk_util.Pool.set_jobs] or
    [ELK_JOBS]) are folded in candidate order by analytic total: one
    whose lower bound exceeds the best total so far is skipped (counted
    as pruned), and a later one wins only with a strictly lower total.
    The returned plan, [orders_tried] and the order counters are
    therefore identical whatever the jobs count.

    While {!Compilecache.enabled}, compiles are served from a whole-plan
    cache keyed by a digest of (context fingerprint, options, pod, full
    graph content): a warm compile of identical inputs returns the
    previously computed plan — byte-identical by construction — in
    [O(digest)] time, and an on-disk store ([ELK_COMPILE_CACHE_DIR])
    extends this across processes.  Cache misses reuse the partition
    memos that earlier compiles left in the same context.
    Disable with [--no-compile-cache], [ELK_COMPILE_CACHE=0], or
    {!Compilecache.set_enabled}[ false] to recover the exact uncached
    pipeline. *)

val latency : t -> float
(** End-to-end forward latency: on-chip makespan + inter-chip
    all-reduces.  For a decode graph this is the per-token latency. *)

val pp_summary : Format.formatter -> t -> unit
