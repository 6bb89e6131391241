open Ffc_net
open Ffc_lp

type crossing = { flow : Flow.t; tidx : int; tunnel : Tunnel.t }

type vars = {
  model : Model.t;
  bf : Model.var array;
  af : Model.var array array;
  crossings : crossing list array;
}

let scope_vars = 1
let scope_capacity = 2
let scope_demand = 3
let scope_frozen = 4
let scope_beta = 5
let scope_control = 6
let scope_data_plane = 7

let crossings_by_link (input : Te_types.input) =
  let per_link = Array.make (Topology.num_links input.Te_types.topo) [] in
  List.iter
    (fun (f : Flow.t) ->
      List.iteri
        (fun tidx (tn : Tunnel.t) ->
          List.iter
            (fun (l : Topology.link) ->
              per_link.(l.Topology.id) <-
                { flow = f; tidx; tunnel = tn } :: per_link.(l.Topology.id))
            tn.Tunnel.links)
        f.Flow.tunnels)
    input.Te_types.flows;
  per_link

let demand (input : Te_types.input) (f : Flow.t) =
  let d = input.Te_types.demands.(f.Flow.id) in
  if not (d >= 0.) then
    invalid_arg
      (Printf.sprintf "Formulation.demand: flow %d has demand %g (negative or NaN)" f.Flow.id d);
  d

let make_vars ?(fixed_demand = false) model (input : Te_types.input) =
  let n = Array.length input.Te_types.demands in
  let bf = Array.make n (-1) and af = Array.make n [||] in
  Model.scope model scope_vars (fun () ->
      List.iter
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          let d = demand input f in
          let lb = if fixed_demand then d else 0. in
          Model.scope model id (fun () ->
              bf.(id) <- Model.add_var ~lb ~ub:d model;
              af.(id) <- Array.init (Flow.num_tunnels f) (fun _ -> Model.add_var model)))
        input.Te_types.flows);
  { model; bf; af; crossings = crossings_by_link input }

(* Each crossing joins its ingress's group in a list kept sorted by
   ingress, so a group lists its crossings last first. *)
let rec join_group c (v : Topology.switch) = function
  | [] -> [ (v, [ c ]) ]
  | ((u, cs) as g) :: rest ->
    if u = v then (u, c :: cs) :: rest
    else if u > v then (v, [ c ]) :: g :: rest
    else g :: join_group c v rest

let by_ingress crossings =
  List.fold_left (fun groups c -> join_group c c.flow.Flow.src groups) [] crossings

(* The rows below are streamed through [Model.term]/[Model.close_row]; each
   comment gives the row's [Expr] form, which builds the same bits. *)

let demand_constraints vars (input : Te_types.input) =
  let model = vars.model in
  Model.scope model scope_demand (fun () ->
      List.iter
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          Model.scope model id (fun () ->
              (* ge (sum a_{f,t}) (var b_f) *)
              Array.iter (fun a -> Model.term model a 1.) vars.af.(id);
              Model.term model vars.bf.(id) (-1.);
              Model.close_row model Problem.Ge ~lhs:0. ~rhs:0.))
        input.Te_types.flows)

let load_expr vars crossings =
  Expr.sum (List.map (fun c -> Expr.var vars.af.(c.flow.Flow.id).(c.tidx)) crossings)

let append_load vars crossings =
  List.iter (fun c -> Model.term vars.model vars.af.(c.flow.Flow.id).(c.tidx) 1.) crossings

let capacity_constraints ?reserved vars (input : Te_types.input) =
  Model.scope vars.model scope_capacity (fun () ->
      Array.iter
        (fun (l : Topology.link) ->
          let id = l.Topology.id in
          match vars.crossings.(id) with
          | [] -> ()
          | crossings ->
            let cap =
              l.Topology.capacity
              -. (match reserved with None -> 0. | Some r -> r.(id))
            in
            Model.scope vars.model id (fun () ->
                (* le (load_expr crossings) (const (max 0. cap)) *)
                append_load vars crossings;
                Model.close_row vars.model Problem.Le ~lhs:0. ~rhs:(max 0. cap)))
        (Topology.links input.Te_types.topo))

let total_rate_expr vars =
  Expr.sum (Array.to_list (Array.map (fun v -> if v >= 0 then Expr.var v else Expr.zero) vars.bf))

let alloc_of_solution vars (input : Te_types.input) value =
  let n = Array.length input.Te_types.demands in
  let bf = Array.make n 0. in
  let af = Array.make n [||] in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      bf.(id) <- max 0. (value vars.bf.(id));
      af.(id) <- Array.map (fun v -> max 0. (value v)) vars.af.(id))
    input.Te_types.flows;
  { Te_types.bf; af }

type stats = {
  lp_vars : int;
  lp_rows : int;
  build_ms : float;
  solve_ms : float;
  solver : Problem.solver_stats option;
}

let solve ~label ?presolve ?max_iterations ?deadline_ms ?warm_start ~started_ms model =
  let t1 = Ffc_util.Clock.now_ms () in
  let build_ms = t1 -. started_ms in
  let fail kind what reason =
    let msg =
      if reason = "" then Printf.sprintf "%s: %s" label what
      else Printf.sprintf "%s: %s (%s)" label what reason
    in
    Error (Te_types.failure kind msg)
  in
  match Option.map (fun d -> d -. build_ms) deadline_ms with
  | Some remaining when remaining <= 0. -> fail `Deadline "deadline exceeded" "model build"
  | remaining_ms -> (
    let outcome =
      Model.solve ?presolve ?max_iterations ?deadline_ms:remaining_ms ?warm_start model
    in
    let solver = Model.last_stats model in
    let reason = match solver with Some st -> st.Problem.status_reason | None -> "" in
    match outcome with
    | Model.Optimal sol ->
      Ok
        ( sol,
          {
            lp_vars = Model.num_vars model;
            lp_rows = Model.num_constraints model;
            build_ms;
            solve_ms = Ffc_util.Clock.since_ms t1;
            solver;
          } )
    | Model.Infeasible -> fail `Infeasible "infeasible" reason
    | Model.Unbounded -> fail `Unbounded "unbounded" reason
    | Model.Iteration_limit -> fail `Iteration_limit "iteration limit" reason
    | Model.Deadline_exceeded -> fail `Deadline "deadline exceeded" reason)
