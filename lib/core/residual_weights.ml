open Ffc_net
open Ffc_lp

type result = {
  bf : float array;
  splits : (int list * float array) list array;
  lp_rows : int;
}

(* Fault cases: subsets of fibres of size <= ke; a case is represented by
   the sorted list of failed directed link ids. *)
let cases (input : Te_types.input) ~ke =
  Enumerate.subsets_upto (Topology.fibres input.Te_types.topo) ke
  |> List.map (fun fibre_set -> List.sort_uniq compare (List.concat fibre_set))

(* A flow's residual tunnel positions under a case. *)
let residual_positions (f : Flow.t) failed_links =
  List.mapi (fun ti t -> (ti, t)) f.Flow.tunnels
  |> List.filter_map (fun (ti, t) ->
         if
           Tunnel.survives t
             ~failed_links:(fun id -> List.mem id failed_links)
             ~failed_switches:(fun _ -> false)
         then Some ti
         else None)

let solve ~ke (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  let nflows = Array.length input.Te_types.demands in
  let bf = Array.make nflows (-1) in
  List.iter
    (fun (f : Flow.t) ->
      bf.(f.Flow.id) <- Model.add_var ~ub:input.Te_types.demands.(f.Flow.id) model)
    input.Te_types.flows;
  let all_cases = cases input ~ke in
  (* Split variables keyed by (flow, residual set): Suchara's switches can
     only observe their own tunnels' liveness. *)
  let split_vars : (int * int list, Model.var array) Hashtbl.t = Hashtbl.create 64 in
  let splits_of (f : Flow.t) failed =
    let id = f.Flow.id in
    let residual = residual_positions f failed in
    match Hashtbl.find_opt split_vars (id, residual) with
    | Some vars -> (residual, vars)
    | None ->
      let nt = Flow.num_tunnels f in
      let vars =
        Array.init nt (fun ti ->
            if List.mem ti residual then Model.add_var model
            else (-1) (* dead tunnels carry nothing *))
      in
      (if residual = [] then
         (* No residual tunnels in some case: the flow must be off. *)
         Model.le model (Expr.var bf.(id)) Expr.zero
       else begin
         let total =
           Expr.sum (List.map (fun ti -> Expr.var vars.(ti)) residual)
         in
         Model.ge model total (Expr.var bf.(id))
       end);
      Hashtbl.add split_vars (id, residual) vars;
      (residual, vars)
  in
  (* Capacity per surviving link per case, using the case's splits. *)
  List.iter
    (fun failed ->
      let per_link = Hashtbl.create 32 in
      List.iter
        (fun (f : Flow.t) ->
          let residual, vars = splits_of f failed in
          List.iter
            (fun ti ->
              let t = List.nth f.Flow.tunnels ti in
              List.iter
                (fun (l : Topology.link) ->
                  let e = l.Topology.id in
                  Hashtbl.replace per_link e
                    (Expr.var vars.(ti)
                    :: Option.value ~default:[] (Hashtbl.find_opt per_link e)))
                t.Tunnel.links)
            residual)
        input.Te_types.flows;
      Hashtbl.iter
        (fun e exprs ->
          let link = Topology.link input.Te_types.topo e in
          Model.le model (Expr.sum exprs) (Expr.const link.Topology.capacity))
        per_link)
    all_cases;
  Model.maximize model
    (Expr.sum
       (List.map (fun (f : Flow.t) -> Expr.var bf.(f.Flow.id)) input.Te_types.flows));
  match Formulation.solve ~label:"residual-weights TE" ~started_ms model with
  | Ok (sol, stats) ->
    let rates = Array.make nflows 0. in
    List.iter
      (fun (f : Flow.t) -> rates.(f.Flow.id) <- max 0. (Model.value sol bf.(f.Flow.id)))
      input.Te_types.flows;
    let splits = Array.make nflows [] in
    List.iter
      (fun (f : Flow.t) ->
        let id = f.Flow.id in
        splits.(id) <-
          List.map
            (fun failed ->
              let _, vars = splits_of f failed in
              ( failed,
                Array.map (fun v -> if v < 0 then 0. else max 0. (Model.value sol v)) vars ))
            all_cases)
      input.Te_types.flows;
    Ok { bf = rates; splits; lp_rows = stats.Formulation.lp_rows }
  | Error f -> Error f.Te_types.message

let verify (input : Te_types.input) result ~ke =
  let check_case failed =
    let check_flow (f : Flow.t) =
      let id = f.Flow.id in
      match List.assoc_opt failed result.splits.(id) with
      | None -> Error (Printf.sprintf "flow %d missing split for a case" id)
      | Some alloc ->
        let dead ti (t : Tunnel.t) =
          alloc.(ti) > 0.
          && not
               (Tunnel.survives t
                  ~failed_links:(fun l -> List.mem l failed)
                  ~failed_switches:(fun _ -> false))
        in
        let carried = Array.fold_left (fun acc r -> if r > 0. then acc +. r else acc) 0. alloc in
        if List.filteri dead f.Flow.tunnels <> [] then
          Error (Printf.sprintf "flow %d uses a dead tunnel" id)
        else if carried < result.bf.(id) -. 1e-6 then
          Error (Printf.sprintf "flow %d under-carried in a case" id)
        else Ok ()
    in
    match Enumerate.first_failure check_flow input.Te_types.flows with
    | Error _ as e -> e
    | Ok () -> (
      let loads =
        Te_types.loads_with input (fun f -> List.assoc failed result.splits.(f.Flow.id))
      in
      match Enumerate.first_overloaded input loads with
      | None -> Ok ()
      | Some l ->
        Error
          (Printf.sprintf "link %d overloaded (%.6f > %.6f)" l.Topology.id
             loads.(l.Topology.id) l.Topology.capacity))
  in
  Enumerate.first_failure check_case (cases input ~ke)
