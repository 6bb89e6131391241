(** Textbook two-phase full-tableau simplex, the reference solver the LP
    oracles ({!Oracles.lp_test}), Table 2's oracle row and the LP tests
    check the revised simplex against.

    Bounded variables are handled by shifting/splitting into the standard
    [min c x, A x = b, x >= 0] form (adding an explicit row per two-sided
    bound), so this solver is only suitable for small problems — the test
    harness keeps instances to tens of rows. It stops after
    [200 * (rows + columns) + 5_000] pivots of that form. *)

type result = {
  status : Ffc_lp.Problem.status;  (** never [Deadline_exceeded] from {!solve} *)
  x : float array;
      (** one value per model variable when [status = Optimal], else
          empty *)
  objective : float;
      (** in the model's sense, as {!Ffc_lp.Model.objective_value} reports
          it; NaN unless [status = Optimal] *)
}

val solve : ?presolve:bool -> Ffc_lp.Model.t -> result
(** [solve m] solves the problem {!Ffc_lp.Model.to_problem} gives for [m]
    ([~presolve:true], the default, reduces it first; a presolve proof of
    infeasibility is [Infeasible]), and computes the objective as
    {!Ffc_lp.Model.solve} does ({!Ffc_lp.Model.objective_at}), so a value
    compared with the revised simplex's has the same bits a solve through
    {!Ffc_lp.Model.solve} would give it. *)

val of_outcome : Ffc_lp.Model.t -> Ffc_lp.Model.outcome -> result
(** [of_outcome m o] is the revised simplex's outcome [o] of [m] in the
    same terms, so the two solvers' verdicts compare directly: [x] holds
    {!Ffc_lp.Model.value} of each of [m]'s variables and [objective]
    {!Ffc_lp.Model.objective_value}. *)
