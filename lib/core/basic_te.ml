open Ffc_lp

let solve_checked ?backend ?reserved ?presolve ?max_iterations ?deadline_ms ?warm_start
    (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create ~name:"basic-te" () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  Model.maximize model (Formulation.total_rate_expr vars);
  Formulation.solve ~label:"basic TE" ?backend ?presolve ?max_iterations ?deadline_ms
    ?warm_start ~started_ms model
  |> Result.map (fun (sol, _) ->
         (Formulation.alloc_of_solution vars input sol, Model.solution_basis sol))

let solve ?backend ?reserved (input : Te_types.input) =
  match solve_checked ?backend ?reserved input with
  | Ok (alloc, _) -> Ok alloc
  | Error f -> Error f.Te_types.message
