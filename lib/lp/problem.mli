(** The computational form {!Model} assembles and {!Revised} solves.

    A problem is [minimise obj . x] subject to [A x + s = rhs] and
    [lb <= x <= ub], where one slack variable [s_i] is appended per row with
    bounds encoding the row sense ([<=] gives [0 <= s], [>=] gives [s <= 0],
    [=] gives [s = 0]). The structural part of [A] is one flat compressed
    sparse column (CSC) matrix; the slacks' unit columns are implicit.
    Infinite bounds are [neg_infinity] / [infinity]. *)

type sense = Le | Ge | Eq

type t = private {
  nstruct : int;  (** number of structural (user) variables *)
  ncols : int;  (** [nstruct + nrows]: structural then slack columns *)
  nrows : int;
  col_start : int array;
      (** length [nstruct + 1]: structural column [j]'s nonzeros are
          positions [col_start.(j)] to [col_start.(j + 1) - 1] of
          [row_idx] and [col_val], sorted by row. Slack column
          [nstruct + i] is row [i]'s unit column and is not stored. *)
  row_idx : int array;  (** row index of each nonzero, length [col_start.(nstruct)] *)
  col_val : float array;  (** coefficient of each nonzero, never 0 *)
  lb : float array;  (** length [ncols] *)
  ub : float array;
  obj : float array;  (** minimisation costs, length [ncols] (slacks are 0) *)
  rhs : float array;
}

val of_rows :
  nstruct:int ->
  lb:float array ->
  ub:float array ->
  obj:float array ->
  nrows:int ->
  sense:sense array ->
  rhs:float array ->
  row_start:int array ->
  term_var:int array ->
  term_coef:float array ->
  t
(** [of_rows ~nstruct ~lb ~ub ~obj ~nrows ~sense ~rhs ~row_start ~term_var
    ~term_coef] is the one constructor of the computational form. It
    assembles it from rows held in one flat row-major buffer: row
    [i < nrows] has sense [sense.(i)], right-hand side [rhs.(i)] and the
    terms at positions [row_start.(i)] to [row_start.(i + 1) - 1] of
    [term_var] (variable indices in [0..nstruct-1]) and [term_coef]. The
    row arrays may be longer than [nrows] needs; none of the arrays is
    kept.

    One counting sort fills the flat columns, each sorted by row, into
    three arrays whatever the problem's size. A variable repeated in a row
    is summed into one entry in input order, and dropped if the sum is 0; a
    zero term is ignored. Raises [Invalid_argument] on malformed input (bad
    index, [lb > ub], NaN). *)

type rows = {
  row_start : int array;  (** length [nrows + 1] *)
  row_cols : int array;
  row_vals : float array;
}
(** The structural part of A by rows: row [i]'s entries are positions
    [row_start.(i)] to [row_start.(i + 1) - 1] of [row_cols] (column
    indices, ascending) and [row_vals] (nonzero coefficients). *)

val rows : t -> rows
(** [rows p] transposes [p]'s structural columns by one counting sort, into
    fresh arrays the caller may overwrite. The dual simplex phase and
    {!Presolve} read A by rows through it; each row holds the terms
    {!of_rows} merged, in column order. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_exceeded
      (** the wall-clock budget passed as [?deadline_ms] expired before the
          solve finished; [stats.status_reason] records which phase was cut *)

type col_status = Bs_basic | Bs_lower | Bs_upper | Bs_free
(** Per-column basis status: in the basis, nonbasic at a bound, or nonbasic
    free (at value 0). *)

type basis = {
  statuses : col_status array;  (** one entry per structural + slack column *)
  keys : int array;
      (** stable key of each column, same order as [statuses]: the key
          {!Model} gave the variable (structural columns) or the row
          (slack columns). [[||]] for a bare positional snapshot
          ({!basis_of_statuses}, a direct {!Revised.solve}). *)
}
(** A basis snapshot over all [ncols] structural + slack columns. Keyed
    snapshots (everything {!Model.solve} returns) warm-start a later solve
    of a problem whose rows and columns differ, through {!remap_basis};
    bare ones only a problem of identical dimensions. *)

val basis_of_statuses : col_status array -> basis
(** A bare positional snapshot ([keys = [||]]). *)

val remap_basis : basis -> nstruct:int -> keys:int array -> basis * bool
(** [remap_basis b ~nstruct ~keys] maps a keyed snapshot onto the column
    layout whose keys are [keys] (structural columns first, [nstruct] of
    them, then one slack per row): a column whose key [b] knows keeps its
    status, a new structural column starts nonbasic at a bound
    ([Bs_lower]) and a new row gets a basic slack. Columns are never
    matched by position. The flag is [true] when the layouts differ; equal
    key arrays return [b] unchanged. A key [b] holds more than once maps
    to its last occurrence. The old keys are looked up in one flat
    open-addressing table (linear probing from the key's low bits), with
    no per-key allocation. The result may hold more or fewer basic columns
    than rows, or a singular set of them: {!Revised.solve} repairs
    both. *)

type solver_stats = {
  phase1_iterations : int;
      (** iterations spent finding a feasible basis: primal phase-1 pivots
          on a cold start, dual pivots on a warm start, plus the iterations
          of an abandoned warm attempt *)
  phase2_iterations : int;
      (** primal iterations optimising the real objective, including any
          dual pivots that repaired a primally infeasible phase-2 optimum *)
  refactorisations : int;  (** basis factorisations (initial + recovery) *)
  degenerate_pivots : int;
      (** pivots with step length ~0: the primal step for a primal pivot,
          the dual step for a dual one *)
  bland_activations : int;  (** times anti-cycling (Bland's rule) engaged *)
  restarts : int;
      (** numerical restarts: warm-start fallbacks to a cold basis,
          phase-1 retries after a spurious unbounded ray, and dual repairs
          of a primally infeasible phase-2 optimum *)
  ftran_ms : float;  (** wall-clock time inside FTRAN solves *)
  factor_nnz : int;  (** nonzeros of the final LU basis factorisation *)
  factor_fill : int;
      (** fill-in of the final factorisation: factor nonzeros minus basis
          nonzeros (negative when cancellation wins) *)
  lu_updates : int;  (** column-replacement updates absorbed across the solve *)
  warm_started : bool;  (** a supplied basis was accepted and used *)
  warm_remapped : bool;
      (** the supplied basis was recorded against a different row or column
          set and was mapped onto this one by key ({!remap_basis}) *)
  warm_repairs : int;
      (** basic columns of the supplied basis the warm start's repair
          factorisation could not pivot (dependent, or more of them than
          rows) and moved to a bound *)
  status_reason : string;
      (** human-readable reason for the final status. {!Revised} gives
          ["optimal"], ["infeasible"], ["unbounded"],
          ["phase1-unbounded (numerical trouble; reported infeasible)"],
          ["iteration-limit (warm dual)"], ["iteration-limit (phase 1)"],
          ["iteration-limit (phase 2)"], ["deadline (warm dual)"],
          ["deadline (phase 1)"], ["deadline (phase 2)"],
          ["phase-2 optimum primally infeasible (numerical trouble)"] or
          ["phase-2 dual repair stuck (numerical trouble)"]; after a cold
          fallback the reason is followed by [" (cold fallback: <why>)"],
          where [<why>] is ["warm dual found no entering column"],
          ["warm dual stalled"] or ["basis of another dimension"] *)
}
(** Instrumentation emitted by the revised simplex. *)

val default_stats : ?reason:string -> unit -> solver_stats
(** The record of a solve that ran no simplex (every count 0, no warm
    start), with [status_reason = reason]: {!Model.solve} reports a
    presolve proof of infeasibility with it. *)

val pp_stats : Format.formatter -> solver_stats -> unit

type result = {
  status : status;
  x : float array;  (** length [ncols]; meaningful when [status = Optimal] *)
  objective : float;  (** minimisation objective value *)
  iterations : int;
  stats : solver_stats;
  basis : basis;
      (** final basis, a bare positional snapshot; reuse via
          [Revised.solve ~basis] to warm-start a related solve *)
}
