(** The basic (non-FFC) TE formulation of §4.1: maximise total throughput
    subject to link capacities and tunnel-sum constraints (Eqns 1-4). *)

val solve :
  ?reserved:float array ->
  Te_types.input ->
  (Te_types.allocation, string) result
(** [reserved] subtracts already-committed capacity per link id (used by the
    multi-priority cascade). Errors are returned as a human-readable
    message (infeasibility cannot occur here — zero is always feasible — so
    an [Error] indicates a solver failure or a malformed input). *)

val solve_checked :
  ?reserved:float array ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Ffc_lp.Problem.basis ->
  Te_types.input ->
  (Te_types.allocation * Ffc_lp.Problem.basis, Te_types.solve_failure) result
(** Like {!solve} but also returns the final simplex basis, and accepts one
    from a previous interval's solve to warm-start (mapped by key onto this
    build, see {!Ffc_lp.Model.solve}). [max_iterations] caps the simplex
    pivots and [deadline_ms] bounds build and solve together. Failures keep
    their machine-readable {!Te_types.failure_kind} so callers (the
    degradation ladder) can react to deadline expiry and iteration limits
    differently from infeasibility; their messages read
    ["basic TE: <what> (<reason>)"] (see {!Formulation.solve}). A malformed
    input (a negative or NaN demand) is an [`Infeasible] failure carrying
    {!Formulation.demand}'s message, which names the flow. It builds an
    {!lp} and solves it once ({!solve_lp}). *)

(** {2 The LP kept between intervals}

    A controller re-plans every interval on a fixed network, and between
    two intervals only the demands change; they enter Eqns 1-4 as the
    upper bounds of the [b_f]. An {!lp} is built once per topology and
    flow list and re-solved with each interval's demands: a re-solve
    writes them into the [b_f] bounds ({!Ffc_lp.Model.set_ub}) and solves
    the problem the model kept from its last solve. That is the problem a
    fresh build would hand the solver. A re-solve with [~presolve:false]
    warm from the basis the last one returned resumes that solve's solver
    state ({!Ffc_lp.Model.solve}): it reaches the optimal throughput a
    fresh build reaches, but may stop at another optimal vertex. Every
    other re-solve, a first or cold one included, is bit-identical to
    {!solve_checked}'s with the same warm start. *)

type lp
(** The basic-TE LP of one topology and flow list. Its model keeps the
    demands of its last solve, which the next one overwrites, and the
    solver state of its last optimal solve without presolve, which the
    next one resumes or replaces. *)

val lp : ?reserved:float array -> Te_types.input -> lp
(** [lp input] builds the LP of [input]'s topology and flow list. It reads
    none of [input]'s demands. [reserved] is fixed at the build (see
    {!solve}). *)

val built_for : lp -> Te_types.input -> bool
(** [built_for lp input] holds when [input]'s topology and flow list are
    physically the values [lp] was built from. A link added to that
    topology since then crosses no tunnel of the flow list, so it adds no
    row and [lp] stays right. *)

val solve_lp :
  ?started_ms:float ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Ffc_lp.Problem.basis ->
  lp ->
  Te_types.input ->
  ( Te_types.allocation * Ffc_lp.Problem.basis * Formulation.stats,
    Te_types.solve_failure )
  result
(** Solves [lp] with [input]'s demands, as {!solve_checked} solves a fresh
    build, with the same failures and messages and, unless it resumes,
    the same results, and also returns the solve's {!Formulation.stats}. [started_ms] (default: now) is the
    {!Ffc_util.Clock.now_ms} reading from which time counts against
    [deadline_ms]: a caller that has just built [lp] passes the reading
    from before the build. Raises [Invalid_argument] unless
    [built_for lp input]. *)
