open Ffc_net
open Ffc_lp
module Bounded_sum = Ffc_sortnet.Bounded_sum

type rl_mode = Rl_assumed_reliable | Rl_ordered

type config = {
  protection : Te_types.protection;
  encoding : Bounded_sum.encoding;
  rl_mode : rl_mode;
  mice_fraction : float;
  ingress_skip_fraction : float;
  rescale_aware : bool;
}

let config ?(protection = Te_types.no_protection) ?(encoding = `Sorting_network)
    ?(rl_mode = Rl_assumed_reliable) ?(mice_fraction = 0.01) ?(ingress_skip_fraction = 1e-5)
    ?(rescale_aware = false) () =
  { protection; encoding; rl_mode; mice_fraction; ingress_skip_fraction; rescale_aware }

type stats = Formulation.stats = {
  lp_vars : int;
  lp_rows : int;
  build_ms : float;
  solve_ms : float;
  solver : Problem.solver_stats option;
}

type result = { alloc : Te_types.allocation; stats : stats; basis : Problem.basis }

(* Flows collectively carrying at most [fraction] of total demand, smallest
   first (§6 mice optimisation). *)
let mice_flows (input : Te_types.input) fraction =
  let total = Array.fold_left ( +. ) 0. input.Te_types.demands in
  let flows =
    List.sort
      (fun (f1 : Flow.t) (f2 : Flow.t) ->
        compare input.Te_types.demands.(f1.Flow.id) input.Te_types.demands.(f2.Flow.id))
      input.Te_types.flows
  in
  let mice = Hashtbl.create 16 in
  let budget = ref (fraction *. total) in
  List.iter
    (fun (f : Flow.t) ->
      let d = input.Te_types.demands.(f.Flow.id) in
      if d <= !budget then begin
        budget := !budget -. d;
        Hashtbl.add mice f.Flow.id ()
      end)
    flows;
  mice

(* Data-plane FFC (§4.3/Eqn 15). Keys: per flow; a flow's mice and
   sorting-network forms (which one depends on the demands) sit in sibling
   scopes 0 and 1, their tunnels in the network's element scopes. *)
let data_plane_constraints cfg (vars : Formulation.vars) (input : Te_types.input) =
  let { Te_types.ke; kv; _ } = cfg.protection in
  let model = vars.Formulation.model in
  if ke > 0 || kv > 0 then begin
    let mice = mice_flows input cfg.mice_fraction in
    Model.scope model Formulation.scope_data_plane @@ fun () ->
    List.iter
      (fun (f : Flow.t) ->
        let id = f.Flow.id in
        let tau = Flow.tau f ~ke ~kv in
        let nt = Flow.num_tunnels f in
        let bf = vars.Formulation.bf.(id) and af = vars.Formulation.af.(id) in
        Model.scope model id @@ fun () ->
        if tau <= 0 then begin
          (* No guaranteed residual tunnel: the flow must be shut (§4.3):
             le (var b_f) zero. *)
          Model.term model bf 1.;
          Model.close_row model Problem.Le ~lhs:0. ~rhs:0.
        end
        else if tau < nt then begin
          if Hashtbl.mem mice id then
            (* §6: equal-split a_{f,t} = b_f / tau_f satisfies Eqn 15 without
               a sorting network: eq (var a) (var ~coeff:(1 / tau) b_f). *)
            Model.scope model 0 (fun () ->
                Array.iter
                  (fun a ->
                    Model.term model a 1.;
                    Model.term model bf (-1. *. (1. /. float_of_int tau));
                    Model.close_row model Problem.Eq ~lhs:0. ~rhs:0.)
                  af)
          else
            Model.scope model 1 (fun () ->
                (* ge (sum_smallest a_f tau) (var b_f) *)
                let elements =
                  {
                    Bounded_sum.count = nt;
                    id = Fun.id;
                    iter = (fun t f -> f af.(t) 1.);
                    constant = (fun _ -> 0.);
                  }
                in
                let worst =
                  Bounded_sum.emit_smallest ~encoding:cfg.encoding model elements tau
                    ~emit:(Model.term model)
                in
                Model.term model bf (-1.);
                Model.close_row model Problem.Ge ~lhs:worst ~rhs:0.)
        end)
      input.Te_types.flows
  end

(* Control-plane FFC (§4.2, Eqns 13-14), plus §5.5 ordered-rate-limiter and
   §5.6 uncertainty extensions. [rhs] gives the right-hand side of each
   link's safety constraint: the (residual) capacity for the standard
   formulation, or [uf * c_e] for the §5.4 MLU variant. Keys: beta per
   (flow, tunnel), with the optional ordered-limiter and uncertainty rows
   in child scopes 0 and 1 of it; the §4.5 and §6 rules decide per link
   and per ingress which rows exist, so the safety row lives in its link's
   scope and the M-sum over ingresses names each element by its ingress
   switch. Every caller adds these rows only when [kc > 0], the one case
   that needs [prev]. *)
let control_plane_constraints cfg (vars : Formulation.vars) (input : Te_types.input)
    ~(prev : Te_types.allocation) ?prev2 ?(uncertain_flows = [])
    ~(rhs : Topology.link -> Expr.t) () =
  let kc = cfg.protection.Te_types.kc in
  let model = vars.Formulation.model in
  let uncertain = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.add uncertain id ()) uncertain_flows;
  (* beta_{f,t} variables (Eqn 8 / Eqn 18 / §5.6), each bounded below by
     rows [at_least b c x] = ge (var b) (var ~coeff:c x) and
     [at_least_const b v] = ge (var b) (const v). *)
  let beta = Array.map (Array.map (fun _ -> -1)) vars.Formulation.af in
  let at_least b c x =
    Model.term model b 1.;
    Model.term model x (-1. *. c);
    Model.close_row model Problem.Ge ~lhs:0. ~rhs:0.
  in
  let at_least_const b v =
    Model.term model b 1.;
    Model.close_row model Problem.Ge ~lhs:0. ~rhs:v
  in
  Model.scope model Formulation.scope_beta (fun () ->
    List.iter
      (fun (f : Flow.t) ->
        let id = f.Flow.id in
        let w' = Te_types.weights prev id in
        (* §4.5 gap (see DESIGN.md): a stuck ingress that also loses tunnels
           rescales its OLD weights, so a surviving tunnel can carry up to
           w'_t * b_f / (1 - D_f) where D_f is the worst old-weight mass on
           tunnels that up to (ke p + kv q) data faults can kill. Scaling the
           w' b_f bound by that constant keeps the formulation linear and
           makes the combined (kc, ke, kv) guarantee hold simultaneously. *)
        let amplification =
          if
            cfg.rescale_aware
            && (cfg.protection.Te_types.ke > 0 || cfg.protection.Te_types.kv > 0)
          then begin
            let kt =
              Flow.num_tunnels f
              - Flow.tau f ~ke:cfg.protection.Te_types.ke ~kv:cfg.protection.Te_types.kv
            in
            let dead_mass =
              Ffc_sortnet.Bounded_sum.value_sum_largest (Array.to_list w') kt
            in
            if dead_mass >= 0.999 then None (* any survivor may carry all of b_f *)
            else Some (1. /. (1. -. dead_mass))
          end
          else Some 1.
        in
        let bf = vars.Formulation.bf.(id) in
        Model.scope model id @@ fun () ->
        Array.iteri
          (fun ti a ->
            Model.scope model ti @@ fun () ->
            let b = Model.add_var model in
            beta.(id).(ti) <- b;
            at_least b 1. a;
            (match amplification with
            | Some k -> at_least b (k *. w'.(ti)) bf
            | None -> if w'.(ti) > 0. then at_least b 1. bf);
            (match cfg.rl_mode with
            | Rl_ordered ->
              Model.scope model 0 (fun () -> at_least_const b prev.Te_types.af.(id).(ti))
            | Rl_assumed_reliable -> ());
            if Hashtbl.mem uncertain id then
              Model.scope model 1 (fun () ->
                  (* Plan for either of the last two configurations. *)
                  at_least_const b prev.Te_types.af.(id).(ti);
                  match prev2 with
                  | Some p2 when Array.length p2.Te_types.af.(id) > ti ->
                    at_least_const b p2.Te_types.af.(id).(ti)
                  | _ -> ()))
          vars.Formulation.af.(id))
      input.Te_types.flows);
  (* Old planned load per link, for the §6 skip rule and §4.5 unprotected
     moves. *)
  let old_loads = Te_types.link_loads input prev in
  Model.scope model Formulation.scope_control @@ fun () ->
  Array.iter
    (fun (l : Topology.link) ->
      let lid = l.Topology.id in
      let crossings = vars.Formulation.crossings.(lid) in
      if crossings <> [] then begin
        if old_loads.(lid) > l.Topology.capacity +. 1e-6 then
          (* §4.5: link already overloaded by the old configuration (e.g.
             after a fault beyond the protection level): allow unprotected
             moves, i.e. only the plain capacity constraint applies. *)
          ()
        else begin
          let groups = Formulation.by_ingress crossings in
          (* §6: ignore ingresses with (near-)zero old load on this link. *)
          let old_load_of cs =
            List.fold_left
              (fun acc (c : Formulation.crossing) ->
                acc +. prev.Te_types.af.(c.Formulation.flow.Flow.id).(c.Formulation.tidx))
              0. cs
          in
          let considered, _skipped =
            List.partition
              (fun (_, cs) -> old_load_of cs > cfg.ingress_skip_fraction *. l.Topology.capacity)
              groups
          in
          (* Element [i] is ingress [i]'s increment
             sum (sub (var beta_{f,t}) (var a_{f,t})) over its crossings. *)
          let considered = Array.of_list considered in
          let elements =
            {
              Bounded_sum.count = Array.length considered;
              id = (fun i -> fst considered.(i));
              iter =
                (fun i f ->
                  List.iter
                    (fun (c : Formulation.crossing) ->
                      let id = c.Formulation.flow.Flow.id and ti = c.Formulation.tidx in
                      f beta.(id).(ti) 1.;
                      f vars.Formulation.af.(id).(ti) (-1.))
                    (snd considered.(i)));
              constant = (fun _ -> 0.);
            }
          in
          Model.scope model lid (fun () ->
              (* le (add (load_expr crossings) excess) (rhs l) *)
              let excess =
                Bounded_sum.emit_largest ~encoding:cfg.encoding model elements kc
                  ~emit:(Model.term model)
              in
              Formulation.append_load vars crossings;
              let r = rhs l in
              Expr.iter_sub (Model.term model) Expr.zero r;
              Model.close_row model Problem.Le ~lhs:(0. +. excess) ~rhs:(Expr.constant r))
        end
      end)
    (Topology.links input.Te_types.topo)

let build ?(config = config ()) ?prev ?prev2 ?(uncertain_flows = []) ?reserved
    (input : Te_types.input) =
  let cfg = config in
  let model = Model.create () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints ?reserved vars input;
  Formulation.demand_constraints vars input;
  (* §5.6: freeze uncertain flows at their last commanded configuration. *)
  if uncertain_flows <> [] then begin
    match (prev, prev2) with
    | Some p, Some _ ->
      Model.scope model Formulation.scope_frozen (fun () ->
          List.iter
            (fun id ->
              Model.scope model id (fun () ->
                  (* eq (var x) (const v) *)
                  let fix x v =
                    Model.term model x 1.;
                    Model.close_row model Problem.Eq ~lhs:0. ~rhs:v
                  in
                  fix vars.Formulation.bf.(id) p.Te_types.bf.(id);
                  Array.iteri (fun ti a -> fix a p.Te_types.af.(id).(ti)) vars.Formulation.af.(id)))
            uncertain_flows)
    | _ -> invalid_arg "Ffc.build: uncertain_flows requires both prev and prev2"
  end;
  if cfg.protection.Te_types.kc > 0 then begin
    match prev with
    | None -> invalid_arg "Ffc.build: control-plane protection (kc > 0) requires prev"
    | Some prev ->
      let rhs (l : Topology.link) =
        let cap =
          l.Topology.capacity -. (match reserved with None -> 0. | Some r -> r.(l.Topology.id))
        in
        Expr.const (max 0. cap)
      in
      control_plane_constraints cfg vars input ~prev ?prev2 ~uncertain_flows ~rhs ()
  end;
  data_plane_constraints cfg vars input;
  vars

let solve_checked ?(config = config ()) ?prev ?prev2 ?uncertain_flows ?reserved ?presolve
    ?max_iterations ?deadline_ms ?warm_start (input : Te_types.input) =
  let started_ms = Ffc_util.Clock.now_ms () in
  match build ~config ?prev ?prev2 ?uncertain_flows ?reserved input with
  | exception Invalid_argument msg -> Error (Te_types.failure `Infeasible msg)
  | vars ->
    let model = vars.Formulation.model in
    Model.maximize model (Formulation.total_rate_expr vars);
    Formulation.solve ~label:"FFC TE" ?presolve ?max_iterations ?deadline_ms ?warm_start
      ~started_ms model
    |> Result.map (fun (sol, stats) ->
           {
             alloc = Formulation.alloc_of_solution vars input (Model.value sol);
             stats;
             basis = Model.solution_basis sol;
           })

let solve ?config ?prev ?prev2 ?uncertain_flows ?reserved ?presolve ?warm_start
    (input : Te_types.input) =
  Result.map_error
    (fun (f : Te_types.solve_failure) -> f.Te_types.message)
    (solve_checked ?config ?prev ?prev2 ?uncertain_flows ?reserved ?presolve ?warm_start
       input)
