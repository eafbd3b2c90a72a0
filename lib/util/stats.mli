(** Small statistics toolbox: summary statistics, error metrics for the
    cost-model accuracy experiment (paper Fig 12), and ordinary
    least-squares fitting used by the linear-tree cost model leaves. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stdev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-th percentile (0..100) using linear
    interpolation between closest ranks.  Raises [Invalid_argument] on the
    empty list or if [p] is outside [0,100] (or NaN). *)

val percentiles : float array -> float list -> float array
(** [percentiles ps xs] is [Array.map (fun p -> percentile p xs) ps],
    bit for bit, from one sort of [xs].  Raises like {!percentile} if any
    [p] is out of range. *)

val geomean : float list -> float
(** Geometric mean of strictly positive values; 0 on the empty list. *)

val mape : (float * float) list -> float
(** Mean absolute percentage error of [(measured, predicted)] pairs,
    as a fraction (0.07 = 7%).  Pairs with measured = 0 are skipped. *)

val r2 : (float * float) list -> float
(** Coefficient of determination of [(measured, predicted)] pairs. *)

val ols : (float array * float) list -> float array
(** [ols samples] fits ordinary least squares [y ~ w . x + b] where each
    sample is a feature vector and a target.  Returns the coefficient
    array of length [dim + 1], the last entry being the intercept.
    Uses normal equations with Gaussian elimination and Tikhonov damping
    for singular systems.  Raises [Invalid_argument] on an empty sample
    list or inconsistent feature dimensions. *)

val predict : float array -> float array -> float
(** [predict coeffs features] applies a coefficient vector from {!ols}. *)

val rel_err : float -> float -> float
(** [|a - b|] relative to the larger magnitude; 0 when both are 0. *)
