open Ffc_net
open Ffc_lp

type result = {
  capacities : float array;
  alloc : Te_types.allocation;
  total_capacity : float;
  stats : Ffc.stats;
}

let solve ?(config = Ffc.config ()) ?prev (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  let vars = Formulation.make_vars ~fixed_demand:true model input in
  Formulation.demand_constraints vars input;
  let nlinks = Topology.num_links input.Te_types.topo in
  let cap_vars = Array.make nlinks (-1) in
  Array.iter
    (fun (l : Topology.link) ->
      let c = Model.add_var model in
      cap_vars.(l.Topology.id) <- c;
      match vars.Formulation.crossings.(l.Topology.id) with
      | [] -> ()
      | crossings -> Model.le model (Formulation.load_expr vars crossings) (Expr.var c))
    (Topology.links input.Te_types.topo);
  Ffc.data_plane_constraints config vars input;
  (if config.Ffc.protection.Te_types.kc > 0 then
     match prev with
     | None -> invalid_arg "Capacity_plan.solve: kc > 0 requires prev"
     | Some prev ->
       Ffc.control_plane_constraints config vars input ~prev
         ~rhs:(fun (l : Topology.link) -> Expr.var cap_vars.(l.Topology.id))
         ());
  let objective =
    Expr.sum
      (List.map
         (fun (l : Topology.link) -> Expr.var cap_vars.(l.Topology.id))
         (Array.to_list (Topology.links input.Te_types.topo)))
  in
  Model.minimize model objective;
  match Formulation.solve ~label:"capacity plan" ~started_ms model with
  | Ok (sol, stats) ->
    let capacities = Array.map (fun v -> max 0. (Model.value sol v)) cap_vars in
    Ok
      {
        capacities;
        alloc = Formulation.alloc_of_solution vars input (Model.value sol);
        total_capacity = Model.objective_value sol;
        stats;
      }
  | Error { Te_types.kind = `Infeasible; _ } ->
    Error
      "capacity plan: infeasible (a flow has tau <= 0: this protection level cannot be met \
       with its tunnel set at full demand)"
  | Error f -> Error f.Te_types.message

let provisioning_factor (input : Te_types.input) planned =
  match solve ~config:(Ffc.config ()) input with
  | Ok base when base.total_capacity > 1e-9 -> planned.total_capacity /. base.total_capacity
  | Ok _ -> infinity
  | Error _ -> nan
