open Ffc_net
open Ffc_lp

type lp = { topo : Topology.t; flows : Flow.t list; vars : Formulation.vars }

(* Only [b_f]'s upper bounds depend on the demands, and [solve_lp] writes
   them before every solve, so the build reads none: each [b_f] starts in
   [0, 0]. *)
let lp ?reserved (input : Te_types.input) =
  let model = Model.create () in
  let idle =
    { input with Te_types.demands = Array.make (Array.length input.Te_types.demands) 0. }
  in
  let vars = Formulation.make_vars model idle in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  Model.maximize model (Formulation.total_rate_expr vars);
  { topo = input.Te_types.topo; flows = input.Te_types.flows; vars }

let built_for lp (input : Te_types.input) =
  lp.topo == input.Te_types.topo && lp.flows == input.Te_types.flows

let solve_lp ?started_ms ?presolve ?max_iterations ?deadline_ms ?warm_start lp
    (input : Te_types.input) =
  let started_ms =
    match started_ms with Some t -> t | None -> Ffc_util.Clock.now_ms ()
  in
  if not (built_for lp input) then
    invalid_arg "Basic_te.solve_lp: input of another topology or flow list";
  let model = lp.vars.Formulation.model in
  match
    List.iter
      (fun (f : Flow.t) ->
        Model.set_ub model lp.vars.Formulation.bf.(f.Flow.id) (Formulation.demand input f))
      input.Te_types.flows
  with
  | exception Invalid_argument msg -> Error (Te_types.failure `Infeasible msg)
  | () ->
    Formulation.solve ~label:"basic TE" ?presolve ?max_iterations ?deadline_ms ?warm_start
      ~started_ms model
    |> Result.map (fun (sol, stats) ->
           ( Formulation.alloc_of_solution lp.vars input (Model.value sol),
             Model.solution_basis sol,
             stats ))

let solve_checked ?reserved ?presolve ?max_iterations ?deadline_ms ?warm_start
    (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  solve_lp ~started_ms ?presolve ?max_iterations ?deadline_ms ?warm_start (lp ?reserved input)
    input
  |> Result.map (fun (alloc, basis, _) -> (alloc, basis))

let solve ?reserved (input : Te_types.input) =
  match solve_checked ?reserved input with
  | Ok (alloc, _) -> Ok alloc
  | Error f -> Error f.Te_types.message
