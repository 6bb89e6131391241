(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the repository takes an explicit [Rng.t] so
    that experiments are exactly reproducible from a seed. SplitMix64 is used
    because it is trivially splittable: independent sub-streams can be derived
    for sub-experiments without correlation. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box-Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a normal deviate; heavy-tailed positive values. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a list
(** [sample_without_replacement t k xs] picks [min k (Array.length xs)]
    distinct elements. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
