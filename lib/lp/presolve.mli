(** LP presolve: cheap reductions applied before the simplex.

    Works on the model-level row form (before slack variables are added) and
    never renumbers columns, so solutions need no back-mapping:
    - terms on fixed variables ([lb = ub]) are folded into the row constant;
    - empty rows are checked and dropped (or declare infeasibility);
    - singleton rows become bound tightenings and are dropped;
    - crossing bounds ([lb > ub]) declare infeasibility.

    Iterates to a fixpoint: a tightening that fixes a variable enables
    further substitutions. The FFC models profit mainly through the §5.6
    frozen-flow equalities and mice-flow equal-split rows. *)

type row = (int * float) list * Problem.sense * float
(** [(terms, sense, rhs)] with variable indices into the bound arrays. *)

type outcome =
  | Reduced of { lb : float array; ub : float array; rows : row list; kept : int array }
      (** tightened bounds (fresh arrays) and the surviving rows, in
          original order; [kept.(i)] is the original index of the [i]-th
          surviving row, so callers can tell *which* rows survived (two
          reductions with equal row counts need not keep the same set;
          {!Model} keys each slack by its original row) *)
  | Infeasible of string  (** human-readable reason *)

val reduce : lb:float array -> ub:float array -> rows:row list -> outcome
(** Raises [Invalid_argument] on malformed input (index out of range). *)
