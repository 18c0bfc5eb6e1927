(** Least-squares fitting used for the diversity/Pf correlation (paper
    Fig. 7 reports [Pf = 0.0838 ln(x) - 0.0191] with [R² = 0.9246]). *)

type fit = {
  slope : float;  (** coefficient of the regressor *)
  intercept : float;
  r_squared : float;  (** coefficient of determination on the fitted data *)
  n : int;  (** number of points used *)
}

val linear : (float * float) list -> fit
(** [linear points] fits [y = slope * x + intercept] by ordinary least
    squares.  Raises [Invalid_argument] with fewer than two distinct
    x-values.  A degenerate fit (constant [y], no variance to explain)
    reports [r_squared = 0.], not [1.]. *)

val log_fit : (float * float) list -> fit
(** [log_fit points] fits [y = slope * ln x + intercept].  Points with
    non-positive [x] are dropped before fitting; raises
    [Invalid_argument] when fewer than two positive-[x] points
    remain. *)

val predict : fit -> float -> float
(** [predict fit x] evaluates a {!linear} fit at [x]. *)

val predict_log : fit -> float -> float
(** [predict_log fit x] evaluates a {!log_fit} at [x > 0]. *)

(** {2 Cross-validation} *)

type loo = {
  predictions : float array;
      (** per-point prediction from the fit {e excluding} that point,
          in input order *)
  residuals : float array;  (** [y - prediction], in input order *)
  r_squared : float;
      (** out-of-sample R² over the held-out predictions; {e can be
          negative} when the fit predicts worse than the mean — that is
          the overfitting signal, and it is not clamped *)
  rmse : float;  (** root-mean-square held-out residual *)
}

val leave_one_out : ?log:bool -> (float * float) list -> loo
(** Leave-one-out cross-validation of {!linear} (or, with [log],
    {!log_fit}): each point is predicted by the fit over the remaining
    points.  Raises [Invalid_argument] with fewer than three points, or
    when any fold is degenerate (propagated from the underlying
    fit). *)
