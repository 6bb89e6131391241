(** Bounded-variable revised primal simplex over a factorised basis.

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
    completed with pinned artificials; a primal-infeasible start goes
    through a bound-violation restoration phase before the real objective
    is optimised. Only a restoration that gets stuck numerically, or a bare
    snapshot of the wrong dimension, falls back to a cold start, counted in
    [result.stats.restarts]. *)

val solve :
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?basis:Problem.basis ->
  Problem.t ->
  Problem.result
(** Solve a problem. [max_iterations] defaults to
    [20 * (nrows + ncols) + 10_000]. [deadline_ms] is a wall-clock budget for
    this solve: the clock is sampled every few pivots ({!Ffc_util.Clock}) in
    every phase — warm restore, phase 1 and phase 2 — and expiry yields
    [Problem.Deadline_exceeded] promptly (within a handful of pivots past the
    budget) with [stats.status_reason] naming the phase that was cut. A
    non-positive budget fails before the first pivot. On [Optimal] the
    returned [x] (one entry per structural and slack column) satisfies all
    constraints and bounds to working tolerance. [result.basis] is always
    [Some] and can seed the next [?basis]; [result.stats] carries the
    instrumentation record ({!Problem.solver_stats}). *)
