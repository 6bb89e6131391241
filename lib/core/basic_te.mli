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
  (Te_types.allocation * Ffc_lp.Problem.basis option, Te_types.solve_failure) result
(** Like {!solve} but also returns the final simplex basis, and accepts one
    from a previous interval's solve to warm-start (mapped by key onto this
    build, see {!Ffc_lp.Model.solve}). [max_iterations] caps the simplex
    pivots and [deadline_ms] bounds build and solve together. Failures keep
    their machine-readable {!Te_types.failure_kind} so callers (the
    degradation ladder) can react to deadline expiry and iteration limits
    differently from infeasibility; their messages read
    ["basic TE: <what> (<reason>)"] (see {!Formulation.solve}). A malformed
    input that fails the model build (a negative or NaN demand) is an
    [`Infeasible] failure carrying the build's message, which names the
    flow. *)
