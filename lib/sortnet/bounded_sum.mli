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

val sum_largest :
  ?encoding:encoding ->
  ?ids:int list ->
  Ffc_lp.Model.t ->
  Ffc_lp.Expr.t list ->
  int ->
  Ffc_lp.Expr.t
(** [sum_largest model xs m] adds auxiliary variables/constraints to [model]
    and returns an expression [Y] with [Y >= sum of the m largest xs] in any
    feasible point, tight at optimality. If [m >= length xs] the plain sum is
    returned; if [m <= 0], the zero expression. Default encoding is
    [`Sorting_network].

    Keys ({!Ffc_lp.Model.scope}): the auxiliaries go into the current scope,
    those built for element [x_i] into its child scope [ids_i] (default:
    [i]; the sorting network nests them under one child scope per pass,
    [0 .. m-1]). Naming elements by the entity they stand for keeps their
    keys when other elements come and go between builds. Call it inside a
    scope of its own when the surrounding scope has other children. Raises
    [Invalid_argument] if [ids] and [xs] differ in length. *)

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
