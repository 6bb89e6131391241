open Ffc_net
open Ffc_lp

type result = {
  alloc : Te_types.allocation;
  mlu : float;
  fault_mlu : float option;
  stats : Ffc.stats;
}

let solve ?(config = Ffc.config ()) ?prev ?(sigma = 1.) (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  let vars = Formulation.make_vars ~fixed_demand:true model input in
  Formulation.demand_constraints vars input;
  let u = Model.add_var model in
  Array.iter
    (fun (l : Topology.link) ->
      match vars.Formulation.crossings.(l.Topology.id) with
      | [] -> ()
      | crossings ->
        (* u >= load / c_e, i.e. u * c_e - load >= 0. *)
        Model.ge model
          (Expr.var ~coeff:l.Topology.capacity u)
          (Formulation.load_expr vars crossings))
    (Topology.links input.Te_types.topo);
  Ffc.data_plane_constraints config vars input;
  let uf =
    if config.Ffc.protection.Te_types.kc > 0 then begin
      match prev with
      | None -> invalid_arg "Mlu_te.solve: kc > 0 requires prev"
      | Some prev ->
        let uf = Model.add_var model in
        Ffc.control_plane_constraints config vars input ~prev
          ~rhs:(fun (l : Topology.link) -> Expr.var ~coeff:l.Topology.capacity uf)
          ();
        Some uf
    end
    else None
  in
  let objective =
    match uf with
    | None -> Expr.var u
    | Some uf -> Expr.add (Expr.var u) (Expr.var ~coeff:sigma uf)
  in
  Model.minimize model objective;
  match Formulation.solve ~label:"MLU TE" ~started_ms model with
  | Ok (sol, stats) ->
    Ok
      {
        alloc = Formulation.alloc_of_solution vars input (Model.value sol);
        mlu = Model.value sol u;
        fault_mlu = Option.map (Model.value sol) uf;
        stats;
      }
  | Error { Te_types.kind = `Infeasible; _ } ->
    Error "MLU TE: infeasible (check tau_f > 0 for all flows)"
  | Error f -> Error f.Te_types.message
