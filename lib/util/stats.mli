(** Descriptive statistics and empirical CDFs used by the experiment
    harnesses. All functions are total on empty input where a neutral value
    exists and raise [Invalid_argument] otherwise. *)

val mean : float list -> float
(** Arithmetic mean; 0 on empty input. *)

val sum : float list -> float

val stddev : float list -> float
(** Sample standard deviation (n-1 in the denominator); 0 on fewer than two
    samples. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on empty input or when a
    sample is NaN. *)

val median : float list -> float

val minimum : float list -> float
val maximum : float list -> float

type cdf
(** An empirical cumulative distribution function. *)

val cdf_of_samples : float list -> cdf
(** Build an empirical CDF. Raises [Invalid_argument] on empty input or when
    a sample is NaN. *)

val cdf_eval : cdf -> float -> float
(** [cdf_eval c x] is the fraction of samples [<= x]. *)

val cdf_inverse : cdf -> float -> float
(** [cdf_inverse c q] with [q] in [\[0,1\]] is the [q]-quantile. *)

val fraction_above : float -> float list -> float
(** [fraction_above x xs] is the fraction of samples strictly above [x]. *)
