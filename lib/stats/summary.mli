(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val of_list : float list -> t
(** [of_list xs] summarises a non-empty sample.  Raises
    [Invalid_argument] on the empty list. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile ([0 <= p <= 100]) using
    linear interpolation on the sorted copy of [xs] (ordered with
    [Float.compare]).  Raises [Invalid_argument] on an empty sample,
    [p] out of range, or a NaN in the sample — NaN has no rank, so it
    is rejected rather than silently mis-sorted. *)

val ratio : num:int -> den:int -> float
(** [ratio ~num ~den] is [num /. den], or [0.] when [den = 0] — the
    guarded division used for fault-to-failure percentages. *)

val pp : Format.formatter -> t -> unit
