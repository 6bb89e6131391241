(** Linear expressions over integer-indexed variables.

    An expression is [sum_i coeff_i * x_i + const]. Variables are plain
    integer indices handed out by {!Model}; this module knows nothing about
    their bounds or names. Expressions are immutable and building one is
    O(size): terms on the same variable are kept apart until {!terms} merges
    them. {!Model} consumes a constraint's terms unmerged ({!iter_sub})
    and merges a repeated variable as {!terms} would, for the solver and
    for presolve alike; {!terms} itself serves the objective. *)

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
(** One pass over the summands' terms; constants are added left to right. *)

val add_term : t -> float -> int -> t
(** [add_term e c i] is [e + c * x_i]. *)

val iter_sub : (int -> float -> unit) -> t -> t -> unit
(** [iter_sub f a b] calls [f i c] on every term of [sub a b] without
    building it: unmerged, zero coefficients included, in the order
    {!terms} would sum a repeated variable. *)

val terms : t -> (int * float) list
(** Merged, zero-free [(variable, coefficient)] pairs, sorted by variable.
    A variable's coefficients are summed in the order of the expression's
    term list ({!add_term} puts its term first). *)

val constant : t -> float

val eval : (int -> float) -> t -> float
(** [eval value e] substitutes [value i] for [x_i]. *)

val pp : Format.formatter -> t -> unit
