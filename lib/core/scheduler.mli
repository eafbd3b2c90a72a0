(** Two-level inductive operator scheduling (paper §4.2).

    Operators execute in graph order; the scheduler decides, by backward
    induction from the last operator, how many preloads overlap each
    operator's execution (its {e preload number}), invoking the
    cost-aware allocator (§4.3) for every candidate so that each preload
    number is evaluated with its best memory split.  Times are anchored
    at the end of the model ([T_end = 0]) and preloads are placed as late
    as possible, exactly as in Lemma 4.1 / Theorem 4.2: for operator [i],

    [T_e_exe(i) = min (T_s_exe(i+1), T_s_pre(first preload of the next
    window))], and the preload number maximizing [T_s_exe(i)] wins.

    The preload order may differ from the execution order (§4.4); it is
    supplied as a permutation and the induction consumes its positions
    from the back. *)

exception Infeasible of string
(** Raised when some operator cannot fit on the chip at all (no partition
    plan within per-core SRAM), or when a supplied preload order leaves an
    operator unpreloadable. *)

exception Pruned
(** Raised by [run ~cutoff] when, partway through the backward induction,
    the finished schedule's estimate ([est_total]) already exceeds
    [cutoff]: the anchored start times [s_exe] only move left as the
    induction walks back, so [-s_exe.(i)] is a monotone lower bound of
    that estimate.  It is not a lower bound of {!Timeline.lower_bound}'s
    stall-free makespan of the same schedule, which the estimate can
    exceed (on 113 of the zoo's 206 candidate schedules, by up to 3.6%).
    The branch-and-bound order search in {!Compile.compile} derives its
    cutoff from {!Timeline.lower_bound} stretched by [prune_margin], which
    absorbs that gap, and uses this to abandon hopeless candidate orders
    without paying for the remaining allocator sweeps.  Never raised when
    [cutoff] is omitted. *)

val run :
  ?order:int array ->
  ?max_preload:int ->
  ?cutoff:float ->
  Elk_partition.Partition.ctx ->
  Elk_model.Graph.t ->
  Schedule.t
(** [run ctx graph] schedules every operator and returns a complete
    {!Schedule.t} (validated).  [order] defaults to the execution order;
    [max_preload] caps the enumerated preload numbers (default 32);
    [cutoff] (default [infinity]) makes the induction raise {!Pruned} as
    soon as the estimate of the schedule under construction exceeds it.

    Each induction step resolves the executing operator's frontier once
    ({!Alloc.exec_frontier}), collects the residents of its largest
    horizon once into an {!Alloc.window}, and runs the cost-aware
    allocator over a prefix of them for every candidate horizon; the
    chosen plan's preload options, read to estimate the operator's own
    distribution time, come from the same resolved frontier.  Once an
    operator's plan is fixed, every read of its preload options — window
    searches, preload lengths, the final options and the repair pass —
    goes through its {!Alloc.frontier}, resolved once.

    A final capacity-repair pass replays the {e effective} (monotonized)
    residency windows and demotes preload options wherever the combined
    per-core footprint would overflow the SRAM — the per-step allocations
    only account for the horizon each step chose, so without repair a
    window opened by an earlier operator could keep more bytes live than
    a later step budgeted for.  Overflows that persist even with minimal
    options (an operator bigger than the chip) are tolerated, as before,
    and charged as contention downstream; [Elk_verify] reports them as
    [mem.overcommit] warnings.

    Each call is a full backward induction: no state is kept between
    calls, so the schedule depends only on the arguments. *)

val preload_numbers : Schedule.t -> int array
(** Per-operator preload numbers ([windows] shifted to operator ids):
    entry [i] is the number of preloads overlapping op [i]'s execution. *)
