(** Cost-aware on-chip memory allocation (paper §4.3).

    Given the currently executing operator and the set of operators whose
    preloads overlap its execution, jointly pick:
    - the executing operator's execute-state plan (memory vs time,
      Tradeoff 1 of Fig 11), and
    - each preloaded operator's preload-state option (preload space vs
      data-distribution time, Tradeoffs 2-3),

    so the combined per-core footprint fits the SRAM capacity.  The search
    starts from every operator's fastest (largest) choice and greedily
    steps the most cost-effective operator — the one whose next
    Pareto point frees the most bytes per added second
    ([delta = reduced_space / increased_time]) — down its frontier until
    the combination fits.

    Both sides come resolved: a window operator's preload options once
    its plan is fixed ({!frontier}), the executing operator's frontier
    once per scheduler induction step ({!exec_frontier}).  A step's
    residents are gathered once, in preload-position order, into a
    {!window}; each candidate horizon searches a prefix of it
    ({!allocate}). *)

type result = {
  exec_plan : Elk_partition.Partition.plan;  (** chosen execute-state plan. *)
  exec_index : int;
      (** position of [exec_plan] in the searched {!exec_frontier}
          (ascending execution space); {!exec_options} takes it. *)
  len : int;  (** number of residents searched: the window is that prefix. *)
  steps : int;
      (** greedy descent steps the search took; {!chosen} replays them to
          read the window's options. *)
  exec_time : float;
      (** execution time of the chosen plan including the estimated
          interconnect-contention stretch from overlapped preloads. *)
  objective : float;
      (** total cost minimized: exec time + window distribution times +
          contention penalty. *)
  total_space : float;  (** per-core bytes of the chosen combination. *)
  contention : float;  (** interconnect contention penalty included. *)
}

(** {1 Address intervals}

    The allocator's capacity reasoning, made explicit: each buffer is a
    half-open per-core SRAM byte interval.  {!allocate_or_error}'s
    capacity check is the extent of the combination's bump packing (the
    chosen one is asserted disjoint through this layer), and
    {!layout_of_schedule} assigns a concrete deterministic address map
    to a whole schedule — the address component the race analysis
    ({!Elk_verify}) joins with {!Residency} lifetimes and the
    happens-before DAG. *)

type allocation = {
  a_op : int;  (** operator id owning the buffer. *)
  a_kind : Residency.kind;  (** preload- or execute-state footprint. *)
  a_base : float;  (** first byte of the interval. *)
  a_size : float;  (** bytes; the interval is [a_base, a_base + a_size). *)
}

val overlaps : allocation -> allocation -> bool
(** Half-open address-interval intersection: touching intervals
    ([[0,4)] and [[4,8)]) do {e not} overlap, and zero-byte buffers
    overlap nothing. *)

val packing_disjoint : float list -> bool
(** [packing_disjoint sizes] is the verdict the allocator asserts on every
    combination it returns: whether bump-packing [sizes] (in packing
    order, from base 0) yields pairwise non-{!overlaps} intervals.  One
    pass when no size is negative — such a packing is disjoint by
    construction, zeros, NaN and infinities included — and the pairwise
    scan only when one is. *)

val layout_of_schedule : Schedule.t -> allocation list
(** Deterministic first-fit address layout over the schedule's buffer
    lifetimes (liveness in program-instruction coordinates: a preload
    buffer from its [preload_async] to its consuming [execute], an
    execute buffer during its own [execute]).  Buffers whose lifetimes
    intersect never share addresses; zero-byte footprints are omitted.
    Result sorted by (operator, kind). *)

type frontier
(** A window operator's preload-state options for one fixed execute-state
    plan, resolved once ({!frontier}) and reused by every allocation whose
    window holds the operator. *)

val frontier :
  Elk_partition.Partition.ctx ->
  Elk_model.Graph.node ->
  Elk_partition.Partition.plan ->
  frontier
(** [frontier ctx node plan] resolves [node]'s preload options under
    [plan] ({!Elk_partition.Partition.preload_options}). *)

val plan : frontier -> Elk_partition.Partition.plan
(** The fixed plan the frontier was resolved for. *)

val options : frontier -> Elk_partition.Partition.preload_opt array
(** The plan's preload options, in
    {!Elk_partition.Partition.preload_options}' order (ascending preload
    space); never empty.  The array is the frontier's own: read it, do not
    write it. *)

type exec_frontier
(** The executing operator's Pareto frontier of execute-state plans
    ({!Elk_partition.Partition.exec_frontier}), resolved once
    ({!exec_frontier}) and reused by every allocation of one scheduler
    induction step — one per candidate preload number.  Each plan's
    preload frontier is resolved on first use ({!exec_options}) and kept;
    the cache is unsynchronized, so a value must stay on one domain. *)

val exec_frontier :
  Elk_partition.Partition.ctx -> Elk_model.Graph.node -> exec_frontier
(** [exec_frontier ctx node] resolves [node]'s execute-state frontier. *)

val exec_options : exec_frontier -> int -> frontier
(** [exec_options ef i] is the preload {!frontier} of the frontier's
    [i]-th plan (a result's [exec_index]), resolved on the first call for
    [i]. *)

type window
(** One scheduler induction step's search state: an {!exec_frontier} and
    the residents of the step's largest horizon in preload-position
    order, of which every candidate horizon's window is a prefix.  What
    each search starts from — every participant at its largest point,
    and those points' footprint, injection and distribution summed over
    every prefix in the order a search adds them — is computed once, by
    {!window}.  A search reads its prefix in place and allocates only its
    result.  The value holds mutable scratch, so it must stay on one
    domain. *)

val window : exec_frontier -> frontier array -> window
(** [window exec residents] prepares the searches of one step. *)

val allocate : capacity:float -> len:int -> window -> result option
(** [allocate ~capacity ~len w] searches the executing operator together
    with the first [len] residents of [w] (the window list of the search
    is that prefix; [0 <= len <= number of residents], else
    [Invalid_argument]).  It returns [None] when even the smallest
    plans/options overflow [capacity] (the caller then tries a smaller
    preload number), or when the executing operator has no feasible plan
    at all.  The infeasibility diagnostic — capacity, demanded bytes,
    offending operator — is logged at debug level under the [alloc]
    source; use {!allocate_or_error} to receive it directly.  Every
    returned combination's bump packing is asserted disjoint
    ({!packing_disjoint}).  A result depends only on [capacity], [len]
    and the window's frontiers, not on earlier searches of [w]. *)

val allocate_or_error :
  capacity:float -> len:int -> window -> (result, string) Stdlib.result
(** Like {!allocate}, but an infeasible combination returns
    [Error msg] where [msg] names the offending operator, the SRAM
    capacity, and the minimal demanded bytes that overflowed it —
    the same search, diagnostics instead of a bare [None]. *)

val chosen : window -> result -> (int * Elk_partition.Partition.preload_opt) list
(** [chosen w r] is the preload option [r] picked for each operator of the
    searched prefix of [w] (the window [r] was searched in), by operator
    id, in window order.  It is built when read, by replaying [r]'s
    descent steps, so a scheduler step builds it only for the horizon it
    keeps.  Like a search, it uses [w]'s scratch. *)

val min_preload_space :
  Elk_partition.Partition.ctx -> Elk_model.Graph.node -> float
(** Smallest possible per-core preload space of an operator (its fastest
    plan's minimal-fraction option) — used by capacity feasibility checks
    in the preload-order search (§4.4). *)
