(** Operator partition plans and their execute/preload-state tradeoffs
    (paper §4.3 and Figure 3).

    A {e partition plan} slices an operator's iteration space into tiles,
    one per core, written as the paper writes them — a vector of per-dim
    part counts (["<90,9>"]).  From a plan and the operator's tensor
    access structure this module derives everything Elk's allocator and
    scheduler consume:

    - {b execution space}: per-core SRAM bytes during execution (input
      slices, output slice, reduction buffer);
    - {b execution time}: per-core tile compute time from the trained cost
      model, plus inter-core exchange serialized BSP-style (activation
      sharing and partial-result reduction);
    - {b preload-state options}: for each HBM-resident input shared by a
      group of [g] cores, the fraction [f ∈ {1, 1/2, ..., 1/g}] broadcast
      at preload time; the rest moves in the data-distribution phase when
      the operator is promoted to execute state (Fig 3 (b)/(c));
    - {b HBM volumes}: bytes read from HBM devices (once per element) vs
      bytes injected into the interconnect by controllers (scaled by
      broadcast replication).

    Two memos, keyed per operator structure (every field of
    {!plan_signature}, names excluded), so the identical layers of an LLM
    cost one enumeration:
    - the enumeration memo: an operator's plans and their Pareto frontier
      ({!enumerate}, {!exec_frontier}).  The frontier step reads only each
      plan's least preload overhead, computed in one pass with no option
      list, so enumerating fills no option entry;
    - the option memo: a plan's preload-option list ({!preload_options}),
      keyed also by the plan's factors and filled only on request — by
      the allocator's windows and the executing operator's chosen plans,
      preload-order feasibility checks, the verifier, plan imports and the
      baselines. *)

type ctx
(** Enumeration context: chip, trained cost model, memo tables. *)

val make_ctx : Elk_cost.Costmodel.t -> ctx
(** Build a context from a trained cost model (the chip is taken from the
    model).  Enumeration keeps each operator's 512 fastest plans. *)

val ctx_chip : ctx -> Elk_arch.Arch.chip
val ctx_cost : ctx -> Elk_cost.Costmodel.t

val fingerprint : ctx -> string
(** Digest of (chip, cost-model behavior, the 512-plan cap) — the
    context component of every cross-compile cache key.  Two contexts
    with equal fingerprints produce identical enumeration, frontier and
    preload-option results for every operator. *)

val set_memo_sharing : bool -> unit
(** Enable/disable cross-context memo sharing (default on unless
    [ELK_COMPILE_CACHE=0]).  When on, {!make_ctx} calls with equal
    fingerprints return contexts backed by the same memo tables, so
    enumeration work persists across compiles.  When off, every context
    gets fresh private tables.  [Elk.Compilecache.set_enabled] is this
    function: one switch for every compile cache. *)

val memo_sharing : unit -> bool

val reset_shared_memos : unit -> unit
(** Drop every shared memo table (tests and cold-start benchmarks). *)

val shared_store_count : unit -> int
(** Number of distinct fingerprints currently holding shared tables. *)

val memo_sizes : ctx -> int * int
(** [(enumeration entries, preload-option entries)] currently memoized in
    this context's tables: one enumeration entry per operator structure
    enumerated, one option entry per (operator, factors) whose options
    were requested — observability for cache-hit accounting. *)

type plan = {
  factors : int array;  (** parts per iteration dimension. *)
  tile : int array;  (** per-core tile extents, ceil-divided. *)
  cores_used : int;  (** product of [factors]. *)
  exec_space : float;  (** per-core execution-space bytes. *)
  exec_time : float;  (** on-chip execution time of the whole operator. *)
  compute_time : float;  (** compute component of [exec_time]. *)
  exchange_bytes_per_core : float;
      (** per-core inter-core traffic during execution (activation sharing
          + reduction), excluding weight distribution. *)
  hbm_needed_per_core : float;
      (** execute-state resident HBM bytes per core (full broadcast). *)
  max_share_group : int;
      (** largest sharing group among HBM-resident inputs; 1 when nothing
          is shared. *)
}

val enumerate : ctx -> Elk_tensor.Opspec.t -> plan list
(** All candidate plans for an operator on this chip: per-dim part counts
    drawn from divisors and powers of two, product within the core count,
    mesh chips restricted to at most 2 partitioned dimensions (§5).
    Result is sorted by [exec_time] and deduplicated by tile shape. *)

val exec_frontier : ctx -> Elk_tensor.Opspec.t -> plan Elk_util.Pareto.point list
(** Pareto frontier over {!enumerate} — Tradeoff 1 of Fig 11 — with
    [x = exec_space] and [y = exec_time] plus the plan's best achievable
    {!preload_overhead}, so that a plan that executes marginally faster
    but forces an expensive preload state (e.g. a huge replicated weight
    slice per core) does not dominate.  That overhead is the least
    {!preload_overhead} of the plan's {!preload_options} ([0.] when it
    is [infinity]), folded over the broadcast fractions in one pass
    without building or memoizing the list.  Memoized with
    {!enumerate}. *)

val fastest_plan : ctx -> Elk_tensor.Opspec.t -> plan
(** The frontier plan minimizing execution time plus best preload
    overhead.  Raises [Invalid_argument] if no plan fits (an operator too
    large for the chip). *)

val fastest_plan_within : ctx -> Elk_tensor.Opspec.t -> space:float -> plan option
(** Fastest plan whose execution space fits the budget — the primitive the
    [Static] baseline uses (§6.1). *)

type preload_opt = {
  frac : float;  (** broadcast fraction in (0, 1]. *)
  preload_space : float;  (** per-core preload-space bytes. *)
  dist_bytes_per_core : float;  (** data-distribution fetch per core. *)
  dist_time : float;  (** data-distribution phase time. *)
  hbm_device_bytes : float;  (** bytes read from HBM devices. *)
  noc_inject_bytes : float;  (** bytes injected by controllers on preload. *)
  preload_len : float;
      (** preload duration: max of the HBM device roofline time, the
          controller injection time and the per-core inbound link time
          (§4.2's preload-time estimate). *)
  hbm_floor : float;
      (** HBM device roofline time alone — the irreducible part of
          [preload_len]; the excess is interconnect-imposed. *)
}

val preload_overhead : preload_opt -> float
(** [dist_time + max 0 (preload_len - hbm_floor)]: the total time cost a
    preload-state option adds beyond the unavoidable HBM transfer — the
    quantity the allocator trades against preload space. *)

val preload_options : ctx -> Elk_tensor.Opspec.t -> plan -> preload_opt list
(** Pareto-optimal preload-state options of an execute-state plan
    (Tradeoffs 2-3 of Fig 11), from minimal residency ([frac = 1/g]) to
    full broadcast ([frac = 1]), sorted by increasing [preload_space].
    Operators with no HBM-resident inputs get a single zero option.
    Memoized per (operator structure, factors) on the first request;
    enumeration makes none. *)

val plan_with_factors :
  ctx -> Elk_tensor.Opspec.t -> int array -> (plan, string) result
(** Rebuild the plan a given factor vector denotes (used when loading a
    serialized schedule).  Errors on malformed vectors (wrong rank,
    nonpositive or out-of-range factors). *)

val preload_option_near :
  ctx -> Elk_tensor.Opspec.t -> plan -> frac:float -> preload_opt
(** The preload-state option whose broadcast fraction is closest to
    [frac] — the inverse of serializing an option by its fraction. *)

val inject_rate : Elk_arch.Arch.chip -> float
(** Rate at which the HBM controllers can inject preload traffic into the
    interconnect: the controllers' aggregate bandwidth on all-to-all, the
    L2 fabric on clustered chips, the boundary entry strips on a mesh —
    the denominator of the injection component of {!preload_opt}'s
    [preload_len], exposed for bandwidth-feasibility lints. *)

val plan_signature : Elk_tensor.Opspec.t -> string
(** The operator component of [Compilecache.graph_digest]'s per-node
    digest: a collision-safe hex digest of kind, iteration extents, input
    sharing structure, per-point FLOPs and dtype — every field partitioning
    depends on, length-prefixed so distinct operators cannot collide by
    separator injection.  Operators from identical layers share a
    signature.  The memo tables do not use it: they hash and compare the
    same fields structurally, so two operators share a memo entry exactly
    when their signatures are equal. *)

val pp_plan : Format.formatter -> plan -> unit
