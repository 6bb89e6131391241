open Ffc_net
open Ffc_lp
module Bounded_sum = Ffc_sortnet.Bounded_sum

let solve ?(config = Ffc.config ()) ~(prev : Te_types.allocation) (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  (* vars.af here are the reservations ahat (provisioned for r_f). *)
  let vars = Formulation.make_vars model input in
  let r = Array.make (Array.length input.Te_types.demands) (-1) in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      let rv = Model.add_var model in
      r.(id) <- rv;
      Model.ge model (Expr.var rv) (Expr.var vars.Formulation.bf.(id));
      Model.ge model (Expr.var rv) (Expr.const prev.Te_types.bf.(id));
      (* Reservations must cover the provisioned rate (Eqn 3 on r). *)
      let total = Expr.sum (Array.to_list (Array.map Expr.var vars.Formulation.af.(id))) in
      Model.ge model total (Expr.var rv))
    input.Te_types.flows;
  (* Plain capacity over reservations. *)
  Formulation.capacity_constraints vars input;
  Ffc.data_plane_constraints config vars input;
  (* Control-plane: beta >= max(ahat, a', w' * r). *)
  (if config.Ffc.protection.Te_types.kc > 0 then begin
     let beta = Array.map (Array.map (fun _ -> -1)) vars.Formulation.af in
     List.iter
       (fun (f : Flow.t) ->
         let id = f.Flow.id in
         let w' = Te_types.weights prev id in
         Array.iteri
           (fun ti a ->
             let b = Model.add_var model in
             beta.(id).(ti) <- b;
             Model.ge model (Expr.var b) (Expr.var a);
             Model.ge model (Expr.var b) (Expr.const prev.Te_types.af.(id).(ti));
             Model.ge model (Expr.var b) (Expr.var ~coeff:w'.(ti) r.(id)))
           vars.Formulation.af.(id))
       input.Te_types.flows;
     Array.iter
       (fun (l : Topology.link) ->
         let crossings = vars.Formulation.crossings.(l.Topology.id) in
         if crossings <> [] then begin
           let groups = Formulation.by_ingress crossings in
           let d_exprs =
             List.map
               (fun (_, cs) ->
                 Expr.sum
                   (List.map
                      (fun (c : Formulation.crossing) ->
                        let id = c.Formulation.flow.Flow.id and ti = c.Formulation.tidx in
                        Expr.sub (Expr.var beta.(id).(ti))
                          (Expr.var vars.Formulation.af.(id).(ti)))
                      cs))
               groups
           in
           let excess =
             Bounded_sum.sum_largest ~encoding:config.Ffc.encoding model d_exprs
               config.Ffc.protection.Te_types.kc
           in
           Model.le model
             (Expr.add (Formulation.load_expr vars crossings) excess)
             (Expr.const l.Topology.capacity)
         end)
       (Topology.links input.Te_types.topo)
   end);
  Model.maximize model (Formulation.total_rate_expr vars);
  match Formulation.solve ~label:"rate-limiter FFC" ~started_ms model with
  | Ok (sol, stats) ->
    Ok
      {
        Ffc.alloc = Formulation.alloc_of_solution vars input (Model.value sol);
        stats;
        basis = Model.solution_basis sol;
      }
  | Error f -> Error f.Te_types.message
