(** LP encodings of the paper's "bounded M-sum" problem (§4.4).

    Given LP expressions [x_1 .. x_N], the bounded M-sum problem requires
    [sum of any M of them <= B] (or [>= B]). All [C(N, M)] constraints reduce
    to a single constraint on the sum of the M largest (resp. smallest)
    values; this module materialises LP variables and constraints whose value
    dominates that partial sum.

    Two encodings are provided:
    - [`Sorting_network]: the paper's contribution (§4.4.2, Algorithms 1-2).
      A partial bubble network of compare-swap operators is emitted; each
      operator yields fresh [max]/[min] variables tied by
      [max >= both inputs] and [min = a + b - max] (directionally exact
      linearisation of Algorithm 2's absolute values). [O(N*M)] comparators,
      3 constraints and 2 variables each.
    - [`Duality]: the classical LP-duality encoding of the sum of the M
      largest values ([sum_largest(x, M) = min_t (M*t + sum_v max(0, x_v -
      t))]), with [N+1] variables and [N] constraints. It is equivalent at
      the optimum and cheaper; the benchmark harness uses it for the long
      end-to-end sweeps and the sorting network for the paper-faithful
      computation-time table (see EXPERIMENTS.md).

    Directionality: the value returned by {!sum_largest} over-approximates
    (>=) the true sum of the M largest at every feasible point and is exact
    at optimality when it appears in upper-bound constraints; symmetrically
    {!sum_smallest} under-approximates and must appear in lower-bound
    constraints. Using them in the opposite direction would be unsound, so
    keep each on its intended side. *)

type encoding = [ `Sorting_network | `Duality ]

(** {2 Streamed form}

    The one implementation of each encoding. The elements are read through
    closures and [Y]'s terms handed to [emit], so a formulation that
    builds these rows every interval streams them through
    {!Ffc_lp.Model.term} and {!Ffc_lp.Model.close_row} without building
    an {!Ffc_lp.Expr.t}. *)

type elements = {
  count : int;
  id : int -> int;  (** element [i]'s scope id (see Keys below) *)
  iter : int -> (Ffc_lp.Model.var -> float -> unit) -> unit;
      (** [iter i f] calls [f x c] on each term [c * x] of element [i]; a
          variable repeated within an element has its terms summed in
          this order in every row *)
  constant : int -> float;  (** element [i]'s constant *)
}
(** [count] linear expressions [x_0 .. x_{count-1}]. *)

val emit_largest :
  ?encoding:encoding ->
  Ffc_lp.Model.t ->
  elements ->
  int ->
  emit:(Ffc_lp.Model.var -> float -> unit) ->
  float
(** [emit_largest model xs m ~emit] adds the encoding's auxiliary
    variables and rows to [model], then calls [emit] on each term of an
    expression [Y] with [Y >= sum of the m largest xs] in any feasible
    point, tight at optimality, and returns [Y]'s constant. If
    [m >= xs.count], [Y] is the plain sum (each element's terms in turn,
    constants added up from [0.]); if [m <= 0], [Y] is [0.] with no term.
    Default encoding is [`Sorting_network]. No row may be open when it is
    called (its rows would take that row's terms); passing
    [Model.term model] as [emit] then starts the caller's row with [Y].
    The rows are bit-identical to the ones the [Expr] form below builds
    (the same variables and rows in the same order and scopes, the same
    coefficient and constant bits), except that a variable repeated
    within one element is summed in [iter]'s order, where the [Expr] form
    varies the order by row.

    Keys ({!Ffc_lp.Model.scope}): the auxiliaries go into the current
    scope, those built for element [i] into its child scope [id i] (the
    sorting network nests them under one child scope per pass,
    [0 .. m-1]). Naming elements by the entity they stand for keeps their
    keys when other elements come and go between builds. Call it inside a
    scope of its own when the surrounding scope has other children. *)

val emit_smallest :
  ?encoding:encoding ->
  Ffc_lp.Model.t ->
  elements ->
  int ->
  emit:(Ffc_lp.Model.var -> float -> unit) ->
  float
(** [emit_smallest model xs m ~emit] emits [Y <= sum of the m smallest
    xs], tight at optimality; intended for [Y >= bound] constraints. As
    {!emit_largest} otherwise. *)

(** {2 Expression form}

    A wrapper over the streamed form for formulations written with
    {!Ffc_lp.Expr} ({!Rate_limiter}, {!Update_plan}, {!Demand_robust} in
    [ffc_core]). *)

val sum_largest :
  ?encoding:encoding ->
  ?ids:int list ->
  Ffc_lp.Model.t ->
  Ffc_lp.Expr.t list ->
  int ->
  Ffc_lp.Expr.t
(** [sum_largest model xs m] adds auxiliary variables/constraints to [model]
    and returns an expression [Y] with [Y >= sum of the m largest xs] in any
    feasible point, tight at optimality. If [m >= length xs] the plain sum
    ([Expr.sum xs]) is returned; if [m <= 0], the zero expression. Default
    encoding is [`Sorting_network]. Element [x_i] is scoped by [ids_i]
    (default: [i]) as in {!emit_largest}, and its terms are read in
    {!Ffc_lp.Expr.iter_sub}'s order. Raises [Invalid_argument] if [ids] and
    [xs] differ in length. *)

val sum_smallest :
  ?encoding:encoding ->
  ?ids:int list ->
  Ffc_lp.Model.t ->
  Ffc_lp.Expr.t list ->
  int ->
  Ffc_lp.Expr.t
(** [sum_smallest model xs m] returns [Y <= sum of the m smallest xs], tight
    at optimality; intended for [Y >= bound] constraints. Keys as for
    {!sum_largest}. *)

val value_sum_largest : float list -> int -> float
(** Reference implementation on concrete values (for tests and the
    enumeration oracle): the sum of the [m] largest values. *)

val value_sum_smallest : float list -> int -> float
