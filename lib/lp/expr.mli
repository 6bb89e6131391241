(** Linear expressions over integer-indexed variables.

    An expression is [sum_i coeff_i * x_i + const]. Variables are plain
    integer indices handed out by {!Model}; this module knows nothing about
    their bounds or names. Expressions are immutable; building is O(size) and
    terms on the same variable are merged by {!terms} (called internally
    before use in constraints). *)

type t

val zero : t
val const : float -> t

val var : ?coeff:float -> int -> t
(** [var ~coeff i] is [coeff * x_i]; [coeff] defaults to 1. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val sum : t list -> t

val add_term : t -> float -> int -> t
(** [add_term e c i] is [e + c * x_i]. *)

val terms : t -> (int * float) list
(** Merged, zero-free [(variable, coefficient)] pairs, sorted by variable. *)

val constant : t -> float

val eval : (int -> float) -> t -> float
(** [eval value e] substitutes [value i] for [x_i]. *)

val pp : Format.formatter -> t -> unit
