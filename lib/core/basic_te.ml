open Ffc_lp

let build ?reserved (input : Te_types.input) =
  let model = Model.create () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  Model.maximize model (Formulation.total_rate_expr vars);
  vars

let solve_checked ?reserved ?presolve ?max_iterations ?deadline_ms ?warm_start
    (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  match build ?reserved input with
  | exception Invalid_argument msg -> Error (Te_types.failure `Infeasible msg)
  | vars ->
    Formulation.solve ~label:"basic TE" ?presolve ?max_iterations ?deadline_ms ?warm_start
      ~started_ms vars.Formulation.model
    |> Result.map (fun (sol, _) ->
           (Formulation.alloc_of_solution vars input sol, Model.solution_basis sol))

let solve ?reserved (input : Te_types.input) =
  match solve_checked ?reserved input with
  | Ok (alloc, _) -> Ok alloc
  | Error f -> Error f.Te_types.message
