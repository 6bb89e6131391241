(** Bounded-variable revised simplex over a factorised basis: primal
    phases for cold solves, a dual phase for warm re-solves.

    The basis inverse is held as a sparse LU factorisation ({!Sparse_lu}):
    refactorisation runs Markowitz-ordered elimination with threshold
    partial pivoting over the basis columns, and each pivot between
    refactorisations appends one product-form update eta on top of the fixed
    L/U factors. FTRAN and BTRAN are sparse triangular solves plus the eta
    file, so per-iteration cost follows factor fill and the nonzero
    structure of the constraint matrix rather than [nrows^2]. Pricing is
    Dantzig over a candidate list (a full scan periodically refills the list
    with the most attractive columns and minor passes price only those),
    with a Bland's-rule fallback guarding against cycling; numerical drift
    and eta-file growth trigger refactorisation. Suited to the mid-size
    sparse problems produced by the FFC formulations (up to a few thousand
    rows).

    [solve ?basis] warm-starts from per-column statuses for this problem's
    layout (a previous solve's basis, mapped by key when the layout changed:
    {!Problem.remap_basis}). Basic columns beyond the row count, or
    dependent on the others, are moved to a bound by a repair-mode
    factorisation ([result.stats.warm_repairs]); uncovered rows are
    completed with pinned artificials. A start that violates bounds goes
    through a dual simplex phase (largest violation leaves, Harris ratio
    test over a pivot row built from a row-wise copy of A); a nonbasic
    column that starts dual infeasible has its cost shifted first, and the
    primal phase 2 that follows prices the true costs, removing the shifts.
    Only a dual phase that finds no entering column or stalls, or a bare
    snapshot of the wrong dimension, falls back to a cold start, counted in
    [result.stats.restarts] and named in [result.stats.status_reason].

    An optimal solve also hands back its {!state}: the basis, its
    factorisation and every array the solve worked in. {!resume} re-solves
    the same problem from it after its bounds moved, which skips the
    factorisation, the row-wise copy of A and the arrays a warm solve
    would build again. *)

type state
(** The solver state an optimal solve ended in, bound to the
    {!Problem.t} it solved. A {!resume} works in it and leaves it behind
    again; hold on to the state the latest call returned and to no
    other. *)

val solve :
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?basis:Problem.basis ->
  Problem.t ->
  Problem.result * state option
(** Solve a problem. [max_iterations] defaults to
    [20 * (nrows + ncols) + 10_000]. [deadline_ms] is a wall-clock budget for
    this solve: the clock is sampled every few pivots ({!Ffc_util.Clock}) in
    every phase — the warm dual phase, phase 1 and phase 2 — and expiry yields
    [Problem.Deadline_exceeded] promptly (within a handful of pivots past the
    budget) with [stats.status_reason] naming the phase that was cut
    (["deadline (warm dual)"], ["deadline (phase 1)"] or
    ["deadline (phase 2)"]). A
    non-positive budget fails before the first pivot. On [Optimal] the
    returned [x] (one entry per structural and slack column) satisfies all
    constraints and bounds to working tolerance. [result.basis] can seed
    the next [?basis], whatever the status; [result.stats] carries the
    instrumentation record ({!Problem.solver_stats}). The state comes
    back with an [Optimal] result only. *)

val resumes : state -> Problem.basis -> bool
(** [resumes st b] holds when [b]'s statuses are the ones [st] ended in,
    column for column: [b] is the basis the solve that left [st]
    returned. *)

val resume : ?max_iterations:int -> ?deadline_ms:float -> state -> Problem.result * state option
(** [resume st] re-solves the problem [st] was left by, from [st]'s basis,
    after the problem's bounds moved in place (as {!Model.set_ub} moves
    them); its matrix, costs and right-hand sides must be unchanged. It
    re-reads the bounds, moves each nonbasic column onto its new bound and
    recomputes the basic values from the kept factorisation, refactorising
    first only when the eta file holds more nonzeros than the factors.
    Then it runs as a warm {!solve} from that basis does: the dual phase,
    phase 2, and on the same terms a cold fallback. It counts itself in
    the [revised.resumes] counter, opens the same [revised.solve] span and
    records the same metrics as {!solve}, and reports
    [stats.warm_started = true] unless it fell back cold. [st] is consumed:
    use the state this call returns. *)
