(** Regression trees with linear-model leaves.

    The paper's execution cost model is a "linear tree" [10]: a decision
    tree over tile-shape features whose leaves are ordinary least-squares
    models.  This is a from-scratch implementation of that estimator:
    greedy variance-reduction splits on feature thresholds, OLS leaves
    (falling back to the leaf mean when a leaf is too small to fit). *)

type t

val fit : ?max_depth:int -> (float array * float) list -> t
(** [fit samples] trains a tree on [(features, target)] pairs, with at
    least 16 samples per leaf.  [max_depth] defaults to 7.
    Raises [Invalid_argument] on an empty sample list or inconsistent
    feature dimensionality. *)

val predict : t -> float array -> float
(** Evaluate the tree.  Raises [Invalid_argument] on a feature vector of
    the wrong dimension. *)

val depth : t -> int
(** Depth of the fitted tree (a single leaf has depth 0). *)

val leaves : t -> int
(** Number of leaves. *)

val mape_on : t -> (float array * float) list -> float
(** Mean absolute percentage error of the tree on a sample set. *)
