(** Preload-order permutation (paper §4.4).

    Reordering preloads (relative to the execution order) avoids
    interconnect "rush hours" and shortens the SRAM lifespans of large
    operators.  Testing all [N!] orders is impossible; Elk prunes with
    three rules implemented here:

    - only {e HBM-heavy} operators (HBM volume above the model average)
      are reordered; all other operators preload in execution order;
    - orders are generated by the backward suffix-tree construction of
      Fig 14, rejecting prefixes whose co-resident operators cannot fit
      in on-chip memory;
    - orders are restricted to permutations within one transformer layer,
      replicated across identical layers, and bounded in edit distance
      (Kendall tau) from the execution order. *)

val kendall_tau : int list -> int list -> int
(** Number of discordant pairs between two orderings of the same element
    set.  Raises [Invalid_argument] if they are not permutations of each
    other. *)

val valid_suffix_orders :
  capacity:float -> items:(int * float) list -> ?max_orders:int -> unit -> int list list
(** [valid_suffix_orders ~capacity ~items ()] enumerates preload orders of
    [items = (exec_index, min_preload_space)] via the backward
    construction: repeatedly choose the next-latest operator [X] to
    preload, requiring that [X] plus every not-yet-chosen operator
    executing after [X] (those preloaded before [X] yet freed only after
    it) fit in [capacity] together.  Returns orders front-to-back
    (first element = first preloaded).  [max_orders] caps the output
    (default 5000). *)

val template_layer_heavy : Elk_model.Graph.t -> int list
(** Ids of HBM-heavy operators of the first layer that contains the
    maximum per-layer count of heavy operators — the layer whose reorder
    is replicated. *)

val candidate_orders :
  ?max_orders:int ->
  ?max_edit_distance:int ->
  Elk_partition.Partition.ctx ->
  Elk_model.Graph.t ->
  int array list
(** Full-model preload orders to evaluate: the identity first, followed by
    orders where each layer's heavy operators are permuted (same
    permutation in every layer) according to capacity-valid, edit-bounded
    per-layer orders.  [max_edit_distance] defaults to 6, [max_orders]
    (total returned) to 64.  Every call enumerates afresh and returns new
    arrays. *)
