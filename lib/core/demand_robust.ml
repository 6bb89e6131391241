open Ffc_net
open Ffc_lp
module Bounded_sum = Ffc_sortnet.Bounded_sum

type result = { alloc : Te_types.allocation; mlu : float; stats : Ffc.stats }

let solve ?(config = Ffc.config ()) ~peaks ~gamma (input : Te_types.input) =
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      if peaks.(id) < input.Te_types.demands.(id) -. 1e-9 then
        invalid_arg "Demand_robust.solve: peak below nominal demand")
    input.Te_types.flows;
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  (* Provision tunnels for the peaks: b_f pinned to dhat_f. *)
  let peak_input = { input with Te_types.demands = Array.copy peaks } in
  let vars = Formulation.make_vars ~fixed_demand:true model peak_input in
  Formulation.demand_constraints vars peak_input;
  let u = Model.add_var model in
  Array.iter
    (fun (l : Topology.link) ->
      match vars.Formulation.crossings.(l.Topology.id) with
      | [] -> ()
      | crossings ->
        (* Group tunnel loads by flow: nominal share + deviation term. *)
        let by_flow = Hashtbl.create 8 in
        List.iter
          (fun (c : Formulation.crossing) ->
            let id = c.Formulation.flow.Flow.id in
            let e = Expr.var vars.Formulation.af.(id).(c.Formulation.tidx) in
            Hashtbl.replace by_flow id
              (match Hashtbl.find_opt by_flow id with None -> e | Some acc -> Expr.add acc e))
          crossings;
        let nominal = ref Expr.zero and deviations = ref [] in
        Hashtbl.iter
          (fun id peak_load ->
            let ratio =
              if peaks.(id) <= 1e-12 then 1. else input.Te_types.demands.(id) /. peaks.(id)
            in
            nominal := Expr.add !nominal (Expr.scale ratio peak_load);
            if ratio < 1. -. 1e-12 then
              deviations := Expr.scale (1. -. ratio) peak_load :: !deviations)
          by_flow;
        let excess =
          Bounded_sum.sum_largest ~encoding:config.Ffc.encoding model !deviations gamma
        in
        (* nominal + worst gamma deviations <= u * c_e *)
        Model.ge model
          (Expr.var ~coeff:l.Topology.capacity u)
          (Expr.add !nominal excess))
    (Topology.links input.Te_types.topo);
  Model.minimize model (Expr.var u);
  match Formulation.solve ~label:"demand-robust TE" ~started_ms model with
  | Ok (sol, stats) ->
    Ok
      {
        alloc = Formulation.alloc_of_solution vars peak_input (Model.value sol);
        mlu = Model.value sol u;
        stats;
      }
  | Error f -> Error f.Te_types.message

let worst_case_utilisation (input : Te_types.input) ~peaks ~gamma
    (alloc : Te_types.allocation) =
  let flow_ids = List.map (fun (f : Flow.t) -> f.Flow.id) input.Te_types.flows in
  let links = Topology.links input.Te_types.topo in
  List.fold_left
    (fun worst peaked ->
      let loads =
        Te_types.loads_with input (fun (f : Flow.t) ->
            let id = f.Flow.id in
            let d = if List.mem id peaked then peaks.(id) else input.Te_types.demands.(id) in
            Array.map (fun wi -> wi *. d) (Te_types.weights alloc id))
      in
      Array.fold_left
        (fun worst (l : Topology.link) -> max worst (loads.(l.Topology.id) /. l.Topology.capacity))
        worst links)
    0.
    (Enumerate.subsets_upto flow_ids gamma)
