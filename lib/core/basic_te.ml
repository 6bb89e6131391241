open Ffc_lp

let solve_checked ?backend ?reserved ?presolve ?max_iterations ?deadline_ms ?warm_start
    (input : Te_types.input) =
  let t0 = Ffc_util.Clock.now_ms () in
  let model = Model.create ~name:"basic-te" () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  Model.maximize model (Formulation.total_rate_expr vars);
  (* Build time counts against the deadline (see Ffc.solve_checked). *)
  let deadline_ms = Option.map (fun d -> d -. Ffc_util.Clock.since_ms t0) deadline_ms in
  let fail kind what = Error (Te_types.failure kind ("basic TE: " ^ what)) in
  match Model.solve ?backend ?presolve ?max_iterations ?deadline_ms ?warm_start model with
  | Model.Optimal sol ->
    Ok (Formulation.alloc_of_solution vars input sol, Model.solution_basis sol)
  | Model.Infeasible -> fail `Infeasible "infeasible (unexpected)"
  | Model.Unbounded -> fail `Unbounded "unbounded (unexpected)"
  | Model.Iteration_limit -> fail `Iteration_limit "iteration limit reached"
  | Model.Deadline_exceeded -> fail `Deadline "deadline exceeded"

let solve ?backend ?reserved (input : Te_types.input) =
  match solve_checked ?backend ?reserved input with
  | Ok (alloc, _) -> Ok alloc
  | Error f -> Error f.Te_types.message
