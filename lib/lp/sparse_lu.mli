(** Sparse LU basis factorisation for the revised simplex.

    Factorises an [m x m] basis matrix given as sparse columns into [L U]
    with row and column permutations chosen by a restricted Markowitz search
    (examine the lowest-fill candidate columns, pick the entry minimising
    [(row_count - 1) * (col_count - 1)]) under threshold partial pivoting
    (an entry qualifies only if its magnitude is at least [tau] times the
    largest in its column), so fill-in stays close to the structural minimum
    while staying numerically safe. FTRAN/BTRAN are sparse triangular
    solves over the factors that skip identity steps; simplex column
    replacements are absorbed as
    sparse product-form update etas layered on top of the fixed factors
    ({!update}), capped by the caller's refactorisation policy.

    Row/position convention: pivoting associates each supplied column with
    one row ({!factor_result.row_of_col}); [ftran] returns the solution of
    [B x = b] as a dense vector where entry [r] is the coefficient of the
    column pivoted at row [r]. This matches the revised simplex invariant
    "[basic.(r)] is the variable in position [r]". *)

type t

type factor_result = {
  lu : t;
  row_of_col : int array;
      (** [row_of_col.(k)] is the pivot row assigned to supplied column
          [k], or [-1] for a rejected column *)
  completed_rows : int list;
      (** rows covered by implicit unit columns (only with [~complete:true]
          when fewer columns than rows were pivoted) *)
  rejected : int list;
      (** supplied columns left out of the factorisation, in increasing
          order; nonempty only with [~repair:true] *)
}

val factorise :
  repair:bool ->
  m:int ->
  complete:bool ->
  ncols:int ->
  col_start:int array ->
  row_idx:int array ->
  col_val:float array ->
  factor_result option
(** [factorise ~repair:false ~m ~complete ~ncols ~col_start ~row_idx
    ~col_val] factorises the matrix of [ncols] columns given in flat compressed
    sparse column form: column [k]'s entries are positions [col_start.(k)]
    to [col_start.(k + 1) - 1] of [row_idx] (rows) and [col_val] (values).
    The arrays may be longer than the columns need, and none is kept. With
    [~complete:false] exactly [m] columns must be supplied and all must
    pivot; with [~complete:true] at most [m] columns are supplied, all of
    them must pivot, and any rows left unpivoted are covered by implicit
    unit columns (reported in [completed_rows]) — the rank-completion used
    by warm starts. Returns [None] if any supplied column cannot be
    pivoted (structurally or numerically singular basis) — including
    columns with no entries at all (zero-nnz, or every value an explicit
    [0.]); no exception escapes for any input of valid dimensions.

    [~repair:true] is the mode for a warm-start basis
    mapped from another LP: any number of columns may be supplied, a column
    that cannot be pivoted — empty, or dependent on the columns pivoted
    before it — is skipped and listed in [rejected], and rank completion
    covers the rows left over (whatever [complete] says). The result is
    then always [Some]: the kept columns plus the completed unit columns
    form a nonsingular basis.

    The factorisation's scratch is kept per domain and grown to the
    largest [max m ncols] a call has needed, so the dozens of
    refactorisations of a simplex solve allocate it once. A call resets
    what it reads and the returned factors never alias it, so a result
    never depends on earlier calls; domains never share it, so
    [factorise] may run on several domains at once. *)

val ftran : t -> float array -> unit
(** [ftran t w] overwrites the dense vector [w] (length [m]) with
    [B^-1 w], applying the LU triangular solves and then any update etas
    oldest-to-newest. The L solve visits only the pivot steps with
    multipliers and the U solve only those with above-diagonal U entries
    or a pivot other than 1; every other step (a slack, a completed row,
    any unit pivot without fill) would compute [x /. 1.], which is [x]
    exactly. Cost follows the factor fill plus the eta file's length, not
    [m]. *)

val btran : t -> float array -> unit
(** [btran t y] overwrites [y] with [B^-T y]: update etas transposed
    newest-to-oldest, then the transposed triangular solves, over the same
    steps as {!ftran} and bit-identical to visiting every step. *)

val update : t -> r:int -> w:float array -> unit
(** [update t ~r ~w] records the simplex column replacement at pivot row
    [r], where [w] is the FTRAN'd entering column under the current
    (updated) factorisation. Appends one sparse product-form eta, read off
    [w] in one pass into scratch kept per domain and copied out at its
    exact size, rows ascending; the caller's refactorisation policy bounds
    how many accumulate (see {!updates}). Requires [abs_float w.(r)]
    comfortably above the pivot tolerance — the caller checks before
    pivoting. *)

val updates : t -> int
(** Number of update etas accumulated since factorisation. *)

val eta_nnz : t -> int
(** Nonzeros in the update etas accumulated since factorisation, each
    eta's pivot included: what {!ftran} and {!btran} read beyond the
    factors' {!nnz}. *)

val nnz : t -> int
(** Nonzeros in the LU factors (L multipliers + U entries + diagonal). *)

val fill_in : t -> int
(** [nnz] minus the nonzeros of the supplied basis columns: entries created
    by elimination (can be negative when cancellation removes more than
    elimination adds). *)
