open Ffc_net
open Ffc_lp

let subsets_upto items k =
  let rec go items k =
    if k = 0 then [ [] ]
    else
      match items with
      | [] -> [ [] ]
      | x :: tl ->
        let without = go tl k in
        let with_x = List.map (fun s -> x :: s) (go tl (k - 1)) in
        without @ with_x
  in
  go items (max 0 k)

let contributing_ingresses (input : Te_types.input) =
  let per_link = Formulation.crossings_by_link input in
  Array.map
    (fun crossings -> List.map fst (Formulation.by_ingress crossings))
    per_link

let control_constraint_count (input : Te_types.input) ~kc =
  let per_link = contributing_ingresses input in
  Array.fold_left
    (fun acc ingresses ->
      if ingresses = [] then acc
      else acc + List.length (subsets_upto ingresses kc) - 1 (* empty case = Eqn 2 *))
    0 per_link

let flow_fault_universe (f : Flow.t) =
  let link_ids =
    List.sort_uniq compare
      (List.concat_map
         (fun (t : Tunnel.t) -> List.map (fun (l : Topology.link) -> l.Topology.id) t.Tunnel.links)
         f.Flow.tunnels)
  in
  let mids = List.sort_uniq compare (List.concat_map Tunnel.intermediate_switches f.Flow.tunnels) in
  (link_ids, mids)

let data_constraint_count (input : Te_types.input) ~ke ~kv =
  List.fold_left
    (fun acc f ->
      let links, mids = flow_fault_universe f in
      acc + (List.length (subsets_upto links ke) * List.length (subsets_upto mids kv)))
    0 input.Te_types.flows

let solve ?(rl_mode = Ffc.Rl_assumed_reliable)
    ~(protection : Te_types.protection) ?prev ?reserved (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  let model = Model.create () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  (* Data plane: Eqn 9 for every fault case over each flow's own elements. *)
  if protection.Te_types.ke > 0 || protection.Te_types.kv > 0 then
    List.iter
      (fun (f : Flow.t) ->
        let id = f.Flow.id in
        let links, mids = flow_fault_universe f in
        let link_cases = subsets_upto links protection.Te_types.ke in
        let switch_cases = subsets_upto mids protection.Te_types.kv in
        List.iter
          (fun failed_links ->
            List.iter
              (fun failed_switches ->
                let residual =
                  List.filteri
                    (fun _ti (t : Tunnel.t) ->
                      Tunnel.survives t
                        ~failed_links:(fun l -> List.mem l failed_links)
                        ~failed_switches:(fun v -> List.mem v failed_switches))
                    f.Flow.tunnels
                in
                if residual = [] then
                  Model.le model (Expr.var vars.Formulation.bf.(id)) Expr.zero
                else begin
                  let lhs =
                    Expr.sum
                      (List.concat
                         (List.mapi
                            (fun ti (t : Tunnel.t) ->
                              if
                                List.exists
                                  (fun (r : Tunnel.t) -> r.Tunnel.id = t.Tunnel.id)
                                  residual
                              then [ Expr.var vars.Formulation.af.(id).(ti) ]
                              else [])
                            f.Flow.tunnels))
                  in
                  Model.ge model lhs (Expr.var vars.Formulation.bf.(id))
                end)
              switch_cases)
          link_cases)
      input.Te_types.flows;
  (* Control plane: Eqn 5 for every stuck-switch case per link. *)
  (if protection.Te_types.kc > 0 then
     match prev with
     | None -> invalid_arg "Enumerate.solve: kc > 0 requires prev"
     | Some prev ->
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
               Model.ge model (Expr.var b) (Expr.var ~coeff:w'.(ti) vars.Formulation.bf.(id));
               match rl_mode with
               | Ffc.Rl_ordered ->
                 Model.ge model (Expr.var b) (Expr.const prev.Te_types.af.(id).(ti))
               | Ffc.Rl_assumed_reliable -> ())
             vars.Formulation.af.(id))
         input.Te_types.flows;
       Array.iter
         (fun (l : Topology.link) ->
           let lid = l.Topology.id in
           let crossings = vars.Formulation.crossings.(lid) in
           if crossings <> [] then begin
             let cap =
               l.Topology.capacity -. (match reserved with None -> 0. | Some r -> r.(lid))
             in
             let groups = Formulation.by_ingress crossings in
             let cases = subsets_upto (List.map fst groups) protection.Te_types.kc in
             List.iter
               (fun stuck ->
                 if stuck <> [] then begin
                   let lhs =
                     Expr.sum
                       (List.map
                          (fun (v, cs) ->
                            Expr.sum
                              (List.map
                                 (fun (c : Formulation.crossing) ->
                                   let id = c.Formulation.flow.Flow.id in
                                   let ti = c.Formulation.tidx in
                                   if List.mem v stuck then Expr.var beta.(id).(ti)
                                   else Expr.var vars.Formulation.af.(id).(ti))
                                 cs))
                          groups)
                   in
                   Model.le model lhs (Expr.const (max 0. cap))
                 end)
               cases
           end)
         (Topology.links input.Te_types.topo));
  Model.maximize model (Formulation.total_rate_expr vars);
  match Formulation.solve ~label:"enumerated FFC" ~started_ms model with
  | Ok (sol, stats) ->
    Ok
      {
        Ffc.alloc = Formulation.alloc_of_solution vars input (Model.value sol);
        stats;
        basis = Model.solution_basis sol;
      }
  | Error f -> Error f.Te_types.message

(* ------------------------------------------------------------------ *)
(* Verification                                                         *)
(* ------------------------------------------------------------------ *)

let tol = 1e-6

let rec first_failure check = function
  | [] -> Ok ()
  | x :: rest -> ( match check x with Ok () -> first_failure check rest | Error _ as e -> e)

let first_overloaded ?(skip = fun _ -> false) (input : Te_types.input) loads =
  let topo = input.Te_types.topo in
  let rec from id =
    if id >= Topology.num_links topo then None
    else
      let l = Topology.link topo id in
      if (not (skip id)) && loads.(id) > l.Topology.capacity +. tol then Some l
      else from (id + 1)
  in
  from 0

(* [context] formats the fault case, only on a violation. *)
let check_loads (input : Te_types.input) loads ~context =
  match first_overloaded input loads with
  | None -> Ok ()
  | Some l ->
    Error
      (Printf.sprintf "%s: link %s->%s overloaded: %.6f > %.6f" (context ())
         (Topology.switch_name input.Te_types.topo l.Topology.src)
         (Topology.switch_name input.Te_types.topo l.Topology.dst)
         loads.(l.Topology.id) l.Topology.capacity)

let rescaled_loads (input : Te_types.input) (alloc : Te_types.allocation) ~failed_links
    ~failed_switches =
  let rates = Rescale.rescale input alloc ~failed_links ~failed_switches () in
  let loads = Rescale.loads input rates.Rescale.tunnel_rates in
  (* Eqn 9 demands the residual tunnels hold the allocated rate; a
     positive-rate flow with no usable residual tunnel violates the
     guarantee (a blackhole rather than congestion) — except when its own
     endpoint switch failed, which the guarantee excludes. *)
  let blackholed = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      if
        rates.Rescale.undeliverable.(f.Flow.id) > tol
        && (not (failed_switches f.Flow.src))
        && not (failed_switches f.Flow.dst)
      then blackholed := f.Flow.id :: !blackholed)
    input.Te_types.flows;
  (loads, !blackholed)

(* One data-plane fault case: the per-case body of {!verify_data_plane},
   exposed so the sampled auditor ({!Controller}) can check a randomized
   subset of the exponential case space. *)
let check_data_case (input : Te_types.input) alloc ~failed_links ~failed_switches =
  let loads, blackholed =
    rescaled_loads input alloc
      ~failed_links:(fun l -> List.mem l failed_links)
      ~failed_switches:(fun v -> List.mem v failed_switches)
  in
  let context () =
    Printf.sprintf "links=[%s] switches=[%s]"
      (String.concat "," (List.map string_of_int failed_links))
      (String.concat "," (List.map string_of_int failed_switches))
  in
  match blackholed with
  | f :: _ -> Error (Printf.sprintf "%s: flow %d blackholed" (context ()) f)
  | [] -> check_loads input loads ~context

(* Links any tunnel uses, ascending: marked by id, then listed. *)
let data_fault_universe (input : Te_types.input) =
  let topo = input.Te_types.topo in
  let used = Array.make (Topology.num_links topo) false in
  List.iter
    (fun (f : Flow.t) ->
      List.iter
        (fun (t : Tunnel.t) ->
          List.iter (fun (l : Topology.link) -> used.(l.Topology.id) <- true) t.Tunnel.links)
        f.Flow.tunnels)
    input.Te_types.flows;
  let all_links = ref [] in
  for id = Array.length used - 1 downto 0 do
    if used.(id) then all_links := id :: !all_links
  done;
  (!all_links, Topology.switches topo)

let control_fault_universe (input : Te_types.input) =
  List.sort_uniq compare (List.map (fun (f : Flow.t) -> f.Flow.src) input.Te_types.flows)

let verify_data_plane (input : Te_types.input) alloc ~ke ~kv =
  let all_links, all_switches = data_fault_universe input in
  let switch_cases = subsets_upto all_switches kv in
  first_failure
    (fun fl ->
      first_failure
        (fun fs -> check_data_case input alloc ~failed_links:fl ~failed_switches:fs)
        switch_cases)
    (subsets_upto all_links ke)

(* Load check for a stuck-switch set: stuck ingresses split the new rate by
   old weights; healthy ones are charged their planned upper bounds
   [a_{f,t}] (which dominate any split of b_f they may install). *)
let stuck_loads (input : Te_types.input) ~(old_alloc : Te_types.allocation)
    ~(new_alloc : Te_types.allocation) ~stuck =
  Te_types.loads_with input (fun (f : Flow.t) ->
      let id = f.Flow.id in
      if List.mem f.Flow.src stuck then
        Array.map (fun w -> w *. new_alloc.Te_types.bf.(id)) (Te_types.weights old_alloc id)
      else new_alloc.Te_types.af.(id))

let verify_combined (input : Te_types.input) ~old_alloc ~new_alloc
    ~(protection : Te_types.protection) =
  let all_links, all_switches = data_fault_universe input in
  let stuck_cases = subsets_upto (control_fault_universe input) protection.Te_types.kc in
  let link_cases = subsets_upto all_links protection.Te_types.ke in
  let switch_cases = subsets_upto all_switches protection.Te_types.kv in
  let check stuck fl fs =
    let rates =
      Rescale.rescale input new_alloc
        ~stuck:(fun v -> List.mem v stuck)
        ~old_alloc_of:(fun _ -> old_alloc)
        ~failed_links:(fun l -> List.mem l fl)
        ~failed_switches:(fun v -> List.mem v fs)
        ()
    in
    let loads = Rescale.loads input rates.Rescale.tunnel_rates in
    let context () =
      Printf.sprintf "stuck=[%s] links=[%s] switches=[%s]"
        (String.concat "," (List.map string_of_int stuck))
        (String.concat "," (List.map string_of_int fl))
        (String.concat "," (List.map string_of_int fs))
    in
    check_loads input loads ~context
  in
  first_failure
    (fun stuck ->
      first_failure (fun fl -> first_failure (check stuck fl) switch_cases) link_cases)
    stuck_cases

(* One control-plane fault case, for the same sampled-audit use. *)
let check_control_case (input : Te_types.input) ~old_alloc ~new_alloc ~stuck =
  let loads = stuck_loads input ~old_alloc ~new_alloc ~stuck in
  let context () =
    Printf.sprintf "stuck=[%s]" (String.concat "," (List.map string_of_int stuck))
  in
  check_loads input loads ~context

let verify_control_plane (input : Te_types.input) ~old_alloc ~new_alloc ~kc =
  first_failure
    (fun stuck -> check_control_case input ~old_alloc ~new_alloc ~stuck)
    (subsets_upto (control_fault_universe input) kc)
