(** Mutable LP model builder: variables with bounds, linear constraints, a
    single linear objective, and a [solve] entry point dispatching to a
    solver backend. This is the API the FFC formulations are written
    against. *)

type t

type var = int
(** Variables are indices into the model; use them with {!Expr.var}. *)

val create : unit -> t

val scope : t -> int -> (unit -> 'a) -> 'a
(** [scope t id f] runs [f] inside the child scope [id] of the current
    scope. Every variable and constraint carries a stable integer key: the
    hash of its scope's path of ids from the root plus its ordinal among
    the variables (or constraints) added directly in that scope. A
    formulation whose blocks appear, vanish or resize with the data scopes
    each block by the entity it encodes (a link, a flow, a tunnel, an
    ingress), so the keys of every other block stay put between builds and
    {!solve} can carry a warm basis across the change. Ids must be distinct
    among the children of one scope; the root scope is the model itself. *)

val add_var : ?lb:float -> ?ub:float -> t -> var
(** New variable. [lb] defaults to [0.], [ub] to [infinity]. Use
    [~lb:neg_infinity] for free variables. *)

val le : t -> Expr.t -> Expr.t -> unit
(** [le t lhs rhs] adds [lhs <= rhs], as the row [lhs - rhs <= 0], its
    terms kept unmerged. A variable that occurs more than once in the row
    has its coefficients summed when the model is solved, in the order the
    row was built (the order {!Expr.terms} sums them in for
    [Expr.sub lhs rhs]), and drops out of the row if they sum to 0. The
    same holds for {!ge} and {!eq}. *)

val ge : t -> Expr.t -> Expr.t -> unit
val eq : t -> Expr.t -> Expr.t -> unit

val maximize : t -> Expr.t -> unit
(** Set the objective (replacing any previous one). *)

val minimize : t -> Expr.t -> unit

type solution

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_exceeded
      (** the [?deadline_ms] wall-clock budget expired mid-solve; see
          {!last_stats} for which phase was cut *)

type backend = [ `Revised | `Dense_tableau ]

val solve :
  ?backend:backend ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Problem.basis ->
  t ->
  outcome
(** Solve the model as currently built. The model remains usable (more
    constraints may be added and it can be re-solved). Default backend is
    [`Revised]; {!Presolve} runs first unless [~presolve:false].
    [?max_iterations] caps simplex pivots and [?deadline_ms] bounds the solve
    wall-clock (both backends); expiry yields {!Iteration_limit} /
    {!Deadline_exceeded} respectively. [?warm_start] seeds the revised
    simplex with a basis from a previous solve ({!solution_basis}) — of
    this model, or of another build of the same formulation whose rows and
    variables differ (different data, a different presolve reduction). The
    basis is mapped onto this build's columns by key
    ({!Problem.remap_basis}; [stats.warm_remapped] says it was), never by
    position, and the revised simplex repairs whatever the mapping leaves
    inconsistent. A bare positional snapshot ({!Problem.basis_of_statuses})
    is passed through as is. The dense-tableau backend ignores
    [?warm_start]. *)

val last_stats : t -> Problem.solver_stats option
(** Instrumentation of the most recent [solve] on this model, available
    even when the outcome carried no solution (infeasible/unbounded). *)

val value : solution -> var -> float
(** Value of a variable in the solution. *)

val objective_value : solution -> float
(** Objective in the user's sense (maximisation objectives are reported as
    maximisation values). *)

val solution_stats : solution -> Problem.solver_stats
(** Solver instrumentation for the solve that produced this solution. *)

val solution_basis : solution -> Problem.basis option
(** Final simplex basis ([Some] for the revised backend), keyed by this
    build's variable and constraint keys; feed it to the next
    [solve ~warm_start] of this formulation, whatever its new shape. *)

val num_vars : t -> int
val num_constraints : t -> int
