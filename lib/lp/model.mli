(** Mutable LP model builder: variables with bounds, linear constraints, a
    single linear objective, and a [solve] entry point, the revised simplex
    ({!Revised}). This is the API the FFC formulations are written
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

val set_ub : t -> var -> float -> unit
(** [set_ub t x ub] replaces [x]'s upper bound, for a re-solve of the same
    model with new data. Raises [Invalid_argument] on an unknown variable,
    a NaN bound or [ub] below [x]'s lower bound, as {!Problem.of_rows}
    rejects them. *)

(** {2 Rows}

    A row is built by appending its terms ({!term}) and then closing it
    ({!close_row}); the terms appended since the last close are the row
    being built. {!le}, {!ge} and {!eq} do both for an [Expr] constraint.
    A formulation that builds the same rows every interval may stream them
    through the primitive instead, without building an [Expr]. Such a
    stream builds the same problem as the [Expr] form, bit for bit, when it
    keeps:
    - the creation order and scopes: variables and rows are made in the
      same order, each in the same {!scope}, so they get the same indices
      and keys;
    - the order of a repeated variable's terms: a variable that occurs
      more than once in a row has its coefficients summed in the order
      they were appended, so they must be appended in the order
      {!Expr.iter_sub} lists them for [lhs - rhs] (the order of terms on
      different variables does not matter);
    - each coefficient's bits: a term of [rhs] goes in as [-1. *. c], as
      {!Expr.iter_sub} negates it;
    - both constants, with their signs of zero: the right-hand side is
      [-.(lhs -. rhs)], so a constant of [-0.] and one of [0.] give
      different rows. *)

val term : t -> var -> float -> unit
(** [term t x c] appends [c * x] to the row being built. *)

val close_row : t -> Problem.sense -> lhs:float -> rhs:float -> unit
(** [close_row t sense ~lhs ~rhs] closes the row being built as
    [terms + lhs <sense> rhs], [lhs] and [rhs] being the constants of its
    two sides; the stored right-hand side is [-.(lhs -. rhs)]. The row's
    key comes from the current scope. A variable that occurs more than
    once in the row has its coefficients summed when the model is solved,
    in the order they were appended, and drops out of the row if they sum
    to 0. *)

val le : t -> Expr.t -> Expr.t -> unit
(** [le t lhs rhs] adds [lhs <= rhs]: it appends the terms of
    [lhs - rhs] unmerged, in the order {!Expr.iter_sub} lists them (the
    order {!Expr.terms} sums a repeated variable in), and closes the row
    with both expressions' constants. The same holds for {!ge} and
    {!eq}. *)

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

val to_problem : ?presolve:bool -> t -> (Problem.t * int array) option
(** The computational form {!solve} hands the solver, with the key of each
    of its columns: the variables' keys, then the keys of the rows it kept
    (their slacks). With [~presolve:true] (the default) the problem is
    {!Presolve.reduce}d first and [None] means presolve proved it
    infeasible. Raises [Invalid_argument] on a malformed model (see
    {!Problem.of_rows}). *)

val objective_at : t -> float array -> float
(** [objective_at t x] is [t]'s objective, in the user's sense, at the
    values [x] of its variables (indexed by {!var}): how {!solve} computes
    {!objective_value}. *)

val solve :
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Problem.basis ->
  t ->
  outcome
(** Solve the model as currently built. The model remains usable (more
    constraints may be added and it can be re-solved). The unpresolved
    problem a solve assembles ({!to_problem}'s [~presolve:false] form) is
    kept in the model, and the next solve starts from it instead of
    assembling it again: {!set_ub} writes through to it, and adding a
    variable ({!add_var}), closing a row ({!close_row}, {!le}, {!ge},
    {!eq}) or setting the objective drops it. A row's terms join the
    problem when the row closes. {!Presolve} runs first unless
    [~presolve:false]; the revised simplex ({!Revised.solve}) solves what
    it leaves. [?max_iterations] caps simplex pivots and [?deadline_ms]
    bounds the solve wall-clock; expiry yields {!Iteration_limit} /
    {!Deadline_exceeded} respectively. [?warm_start] seeds the revised
    simplex with a basis from a previous solve ({!solution_basis}) — of
    this model, or of another build of the same formulation whose rows and
    variables differ (different data, a different presolve reduction). The
    basis is mapped onto this build's columns by key
    ({!Problem.remap_basis}; [stats.warm_remapped] says it was), never by
    position, and the revised simplex repairs whatever the mapping leaves
    inconsistent. A bare positional snapshot ({!Problem.basis_of_statuses})
    is passed through as is.

    The kept problem also keeps the solver state of its last solve when
    that solve ran with [~presolve:false] and was optimal. A solve with
    [~presolve:false] whose [?warm_start] is the basis that solve returned
    (the same statuses and keys) resumes that state ({!Revised.resume})
    instead of factorising the basis again: only the bounds {!set_ub}
    moved, so the kept factorisation still holds. It reaches an optimum of
    the same problem, but not always the vertex a fresh warm solve would
    reach. Any other call (presolve on, no basis, another basis, or a
    problem dropped since) solves anew and replaces the state. *)

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

val solution_basis : solution -> Problem.basis
(** Final simplex basis, keyed by this build's variable and constraint
    keys; feed it to the next [solve ~warm_start] of this formulation,
    whatever its new shape. *)

val num_vars : t -> int
val num_constraints : t -> int
