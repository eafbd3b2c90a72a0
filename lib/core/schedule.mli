(** End-to-end execution schedules: the common data structure produced by
    Elk's scheduler (and by the baseline planners) and consumed by the
    analytic timeline evaluator, the device-program generator and the
    event-driven simulator.

    A schedule fixes, for one chip:
    - the preload order [order] (a permutation of operator ids, §4.4);
    - how many preloads start during each operator's execution
      ([windows], the per-operator preload numbers of §4.2 — index 0 is
      the initial batch issued before the first execution);
    - per operator, the execute-state partition plan, the preload-state
      option and derived durations (§4.3). *)

type op_entry = {
  node_id : int;
  plan : Elk_partition.Partition.plan;  (** execute-state plan. *)
  popt : Elk_partition.Partition.preload_opt;  (** preload-state choice. *)
  preload_len : float;  (** estimated preload duration (HBM vs inject max). *)
  dist_time : float;  (** data-distribution phase duration. *)
}

type t = {
  graph : Elk_model.Graph.t;
  order : int array;  (** [order.(k)] = id of the k-th preloaded operator. *)
  windows : int array;
      (** length [N+1]; [windows.(0)] preloads are issued before the first
          execute, [windows.(i)] during the execution of the i-th operator
          (1-based); the entries sum to [N]. *)
  entries : op_entry array;  (** indexed by operator id. *)
  est_total : float;  (** scheduler's analytic estimate of the makespan. *)
}

val num_ops : t -> int

val validate : t -> (unit, string) result
(** Check structural invariants — at least one operator, [order] is a
    permutation of the operator ids (an id outside [\[0, n)] is named in
    the error), windows sum to the op count, every operator's preload position
    precedes its execution step, entries are indexed consistently — and
    numeric hygiene: every [preload_len], [dist_time], and [est_total]
    must be a finite, non-negative float (NaN, infinities, and negative
    durations are rejected before they can corrupt a timeline
    evaluation). *)

val preload_step : t -> int array
(** [preload_step s] maps each preload {e position} [k] to the execution
    step (0 = initial batch) whose window contains it. *)

val position_of : t -> int array
(** Map each operator id to its position in [order].  Raises
    [Invalid_argument] if [order] names an id outside [\[0, n)];
    {!validate} rejects such a schedule first. *)
