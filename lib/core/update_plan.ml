open Ffc_net
open Ffc_lp
module Bounded_sum = Ffc_sortnet.Bounded_sum

type plan = {
  steps : Te_types.allocation list;
  min_rate : float array;
}

(* Per-link, per-ingress load of a concrete allocation. *)
let ingress_loads per_link (alloc : Te_types.allocation) =
  Array.map
    (fun crossings ->
      List.map
        (fun (v, cs) ->
          ( v,
            List.fold_left
              (fun acc (c : Formulation.crossing) ->
                acc +. alloc.Te_types.af.(c.Formulation.flow.Flow.id).(c.Formulation.tidx))
              0. cs ))
        (Formulation.by_ingress crossings))
    per_link

let transition_safe (input : Te_types.input) a0 a1 =
  let per_link = Formulation.crossings_by_link input in
  let l0 = ingress_loads per_link a0 and l1 = ingress_loads per_link a1 in
  Array.for_all
    (fun (l : Topology.link) ->
      let id = l.Topology.id in
      let find v loads = Option.value ~default:0. (List.assoc_opt v loads) in
      let ingresses = List.sort_uniq compare (List.map fst l0.(id) @ List.map fst l1.(id)) in
      let total =
        List.fold_left
          (fun acc v -> acc +. max (find v l0.(id)) (find v l1.(id)))
          0. ingresses
      in
      total <= l.Topology.capacity +. 1e-6)
    (Topology.links input.Te_types.topo)

let plan ?(config = Ffc.config ()) ?(steps = 2) (input : Te_types.input) ~from_ ~to_ =
  if steps < 1 then invalid_arg "Update_plan.plan: steps must be >= 1";
  let kc = config.Ffc.protection.Te_types.kc in
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  let nf = Array.length input.Te_types.demands in
  let min_rate = Array.make nf 0. in
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      min_rate.(id) <- min from_.Te_types.bf.(id) to_.Te_types.bf.(id))
    input.Te_types.flows;
  (* Intermediate configurations' variables; steps-1 of them. *)
  let inter =
    List.init (steps - 1) (fun _ ->
        let af = Array.make nf [||] in
        List.iter
          (fun (f : Flow.t) ->
            af.(f.Flow.id) <-
              Array.init (Flow.num_tunnels f) (fun _ -> Model.add_var model))
          input.Te_types.flows;
        af)
  in
  (* Every intermediate carries at least the guaranteed rate. *)
  List.iter
    (fun af ->
      List.iter
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          Model.ge model
            (Expr.sum (Array.to_list (Array.map Expr.var af.(id))))
            (Expr.const min_rate.(id)))
        input.Te_types.flows)
    inter;
  let per_link = Formulation.crossings_by_link input in
  (* Ingress-load expression of configuration [cfg] on the crossings [cs]:
     [cfg] is either a constant allocation or a variable table. *)
  let load_of cfg cs =
    match cfg with
    | `Const (alloc : Te_types.allocation) ->
      Expr.const
        (List.fold_left
           (fun acc (c : Formulation.crossing) ->
             acc +. alloc.Te_types.af.(c.Formulation.flow.Flow.id).(c.Formulation.tidx))
           0. cs)
    | `Vars af ->
      Expr.sum
        (List.map
           (fun (c : Formulation.crossing) ->
             Expr.var af.(c.Formulation.flow.Flow.id).(c.Formulation.tidx))
           cs)
  in
  let chain = (`Const from_ :: List.map (fun af -> `Vars af) inter) @ [ `Const to_ ] in
  (* For each transition i: per-link sum over ingresses of
     max(load^{i-1}, load^i), plus (with FFC) the kc largest stuck
     excesses over the whole history, within capacity. *)
  let rec transitions history = function
    | prev_cfg :: (next_cfg :: _ as rest) ->
      let history = prev_cfg :: history in
      Array.iter
        (fun (l : Topology.link) ->
          let crossings = per_link.(l.Topology.id) in
          if crossings <> [] then begin
            let groups = Formulation.by_ingress crossings in
            let maxes, stuck_excess =
              List.split
                (List.map
                   (fun (_, cs) ->
                     let mx = Model.add_var model in
                     Model.ge model (Expr.var mx) (load_of prev_cfg cs);
                     Model.ge model (Expr.var mx) (load_of next_cfg cs);
                     let excess =
                       if kc > 0 then begin
                         (* Stuck switches may impose any historical load. *)
                         let g = Model.add_var model in
                         List.iter
                           (fun cfg -> Model.ge model (Expr.var g) (load_of cfg cs))
                           (next_cfg :: history);
                         Expr.sub (Expr.var g) (Expr.var mx)
                       end
                       else Expr.zero
                     in
                     (Expr.var mx, excess))
                   groups)
            in
            let lhs = Expr.sum maxes in
            let lhs =
              if kc > 0 then
                Expr.add lhs
                  (Bounded_sum.sum_largest ~encoding:config.Ffc.encoding model stuck_excess kc)
              else lhs
            in
            Model.le model lhs (Expr.const l.Topology.capacity)
          end)
        (Topology.links input.Te_types.topo);
      transitions history rest
    | _ -> ()
  in
  transitions [] chain;
  (* Keep intermediate throughput high: maximise total carried rate across
     intermediates (capped by demand). *)
  let objective =
    Expr.sum
      (List.concat_map
         (fun af ->
           List.map
             (fun (f : Flow.t) ->
               let id = f.Flow.id in
               Expr.sum (Array.to_list (Array.map Expr.var af.(id))))
             input.Te_types.flows)
         inter)
  in
  Model.maximize model objective;
  match Formulation.solve ~label:"update plan" ~started_ms model with
  | Ok (sol, _) ->
    let read af =
      let bf = Array.make nf 0. in
      let out = Array.make nf [||] in
      List.iter
        (fun (f : Flow.t) ->
          let id = f.Flow.id in
          out.(id) <- Array.map (fun v -> max 0. (Model.value sol v)) af.(id);
          bf.(id) <- min input.Te_types.demands.(id) (Array.fold_left ( +. ) 0. out.(id)))
        input.Te_types.flows;
      { Te_types.bf; af = out }
    in
    Ok { steps = List.map read inter; min_rate }
  | Error { Te_types.kind = `Infeasible; _ } ->
    Error
      (Printf.sprintf "no congestion-free %d-step update plan exists (try more steps)" steps)
  | Error f -> Error f.Te_types.message
