(** LP presolve: cheap reductions applied before the simplex.

    A pass over the computational form: it reads the rows of a
    {!Problem.t} through {!Problem.rows} (each row's sense from its slack's
    bounds) and returns a smaller {!Problem.t} built by {!Problem.of_rows}.
    It never renumbers columns, so solutions need no back-mapping:
    - terms on fixed variables ([lb = ub]) are folded into the row constant,
      summed in column order;
    - empty rows are checked and dropped (or declare infeasibility);
    - singleton rows become bound tightenings and are dropped;
    - crossing bounds ([lb > ub]) declare infeasibility.

    Rows are simplified in index order, bounds tightened as they go, and
    the pass repeats while a round fixes a new variable (at most 50
    rounds): a tightening that fixes a variable enables further
    substitutions. The FFC models profit mainly through the §5.6
    frozen-flow equalities and mice-flow equal-split rows. *)

type outcome =
  | Reduced of { problem : Problem.t; kept : int array }
      (** the reduced problem: the same structural columns, with tightened
          bounds, and the surviving rows in original order; [kept.(i)] is
          the original index of its row [i], so callers can tell {e which}
          rows survived (two reductions with equal row counts need not keep
          the same set; {!Model} keys each slack by its original row) *)
  | Infeasible of string  (** human-readable reason *)

val reduce : Problem.t -> outcome
