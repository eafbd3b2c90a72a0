(** Regression trees with linear-model leaves.

    The paper's execution cost model is a "linear tree" [10]: a decision
    tree over tile-shape features whose leaves are ordinary least-squares
    models.  This is a from-scratch implementation of that estimator:
    greedy variance-reduction splits on feature thresholds, OLS leaves
    (falling back to the leaf mean when a leaf is too small to fit).

    The split rule: a node of at least 32 samples above the depth limit
    tries, for each feature, a threshold at every [max 1 (n / 8)]-th of
    its [n] distinct values on the node (past the smallest); samples
    below the threshold go left.  A threshold counts only if both sides
    keep at least 16 samples; the node takes the one that most reduces
    the squared error about the side means (the first, in feature then
    threshold order, among equals), and splits only when that reduction
    exceeds 1e-4 of the node's own squared error.  A leaf fits OLS when
    it holds more than [dim + 2] samples, and is their mean otherwise.

    The fit stores features by column, sorts each feature's samples once
    at the root and filters that order down the tree for the thresholds,
    and sums each side's targets in sample order: a fit is a fixed
    sequence of float operations, so equal samples give trees equal to
    the bit. *)

type node =
  | Leaf of float array
      (** OLS coefficients, one per feature, then the intercept. *)
  | Split of { feat : int; thresh : float; lo : node; hi : node }
      (** [lo] takes feature vectors with [features.(feat) < thresh]. *)

type t = { dim : int; root : node }

val fit : ?max_depth:int -> (float array * float) list -> t
(** [fit samples] trains a tree on [(features, target)] pairs.
    [max_depth] defaults to 7.  Raises [Invalid_argument] on an empty
    sample list or inconsistent feature dimensionality. *)

val predict : t -> float array -> float
(** Evaluate the tree.  Raises [Invalid_argument] on a feature vector of
    the wrong dimension. *)

val depth : t -> int
(** Depth of the fitted tree (a single leaf has depth 0). *)

val leaves : t -> int
(** Number of leaves. *)

val mape_on : t -> (float array * float) list -> float
(** Mean absolute percentage error of the tree on a sample set. *)
