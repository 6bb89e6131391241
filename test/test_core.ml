(* Core FFC semantics tests.

   The paper's worked micro-examples (Figures 2-5) are encoded exactly: the
   control-plane example must reproduce the 4 / 7 / 10 units of Figure 5,
   and the data-plane example the k=1-safe spread of Figure 4. Property
   tests then check, on random small WANs, that FFC allocations survive
   exhaustive enumeration of all fault cases up to the protection level, and
   that the compact sorting-network formulation matches the enumerated
   oracle where the paper claims optimality. *)

open Ffc_net
open Ffc_core
module Rng = Ffc_util.Rng

let check_float = Alcotest.(check (float 1e-4))

let find_link topo u v =
  match Topology.find_link topo u v with
  | Some l -> l
  | None -> Alcotest.failf "missing link %d->%d" u v

let tunnel_of ~id topo hops =
  let rec links = function
    | a :: (b :: _ as rest) -> find_link topo a b :: links rest
    | _ -> []
  in
  Tunnel.create ~id (links hops)

(* ------------------------------------------------------------------ *)
(* Figure 3/5: control-plane FFC worked example                        *)
(* ------------------------------------------------------------------ *)

(* Switches: s1 = 0, s2 = 1, s3 = 2, s4 = 3. All links capacity 10. *)
let fig3_input () =
  let topo = Topo_gen.fig3 () in
  let t id hops = tunnel_of ~id topo hops in
  let flows =
    [
      Flow.create ~id:0 ~src:0 ~dst:1 [ t 0 [ 0; 1 ] ];
      Flow.create ~id:1 ~src:0 ~dst:2 [ t 1 [ 0; 2 ] ];
      Flow.create ~id:2 ~src:1 ~dst:3 [ t 2 [ 1; 3 ]; t 3 [ 1; 0; 3 ] ];
      Flow.create ~id:3 ~src:2 ~dst:3 [ t 4 [ 2; 3 ]; t 5 [ 2; 0; 3 ] ];
      Flow.create ~id:4 ~src:0 ~dst:3 [ t 6 [ 0; 3 ] ];
    ]
  in
  let demands = [| 10.; 10.; 10.; 10.; 10. |] in
  { Te_types.topo; flows; demands }

(* Figure 3(a): s2->s4 and s3->s4 send 7 direct + 3 via s1; the new flow
   s1->s4 is not yet running. *)
let fig3_old_alloc () =
  {
    Te_types.bf = [| 10.; 10.; 10.; 10.; 0. |];
    af = [| [| 10. |]; [| 10. |]; [| 7.; 3. |]; [| 7.; 3. |]; [| 0. |] |];
  }

let solve_ffc ?(encoding = `Sorting_network) ?prev ~protection input =
  let config = Ffc.config ~protection ~encoding ~ingress_skip_fraction:0. ~mice_fraction:0. () in
  match Ffc.solve ~config ?prev input with
  | Ok r -> r
  | Error e -> Alcotest.failf "FFC solve failed: %s" e

let test_fig5_control_plane () =
  let input = fig3_input () in
  let prev = fig3_old_alloc () in
  let expect kc total =
    let r = solve_ffc ~prev ~protection:(Te_types.protection ~kc ()) input in
    check_float (Printf.sprintf "throughput kc=%d" kc) total (Te_types.throughput r.Ffc.alloc)
  in
  (* Figure 5: s1->s4 admits 10 / 7 / 4 units for kc = 0 / 1 / 2; the other
     four flows keep their 10 units each. *)
  expect 0 50.;
  expect 1 47.;
  expect 2 44.

let test_fig5_verified_robust () =
  let input = fig3_input () in
  let prev = fig3_old_alloc () in
  List.iter
    (fun kc ->
      let r = solve_ffc ~prev ~protection:(Te_types.protection ~kc ()) input in
      match Enumerate.verify_control_plane input ~old_alloc:prev ~new_alloc:r.Ffc.alloc ~kc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "kc=%d not robust: %s" kc e)
    [ 1; 2 ]

let test_fig3_non_ffc_not_robust () =
  (* The kc=0 solution admits the full 10 units for s1->s4 and is *not*
     robust to a single stuck switch (the paper's Figure 3(c) congestion). *)
  let input = fig3_input () in
  let prev = fig3_old_alloc () in
  let r = solve_ffc ~prev ~protection:Te_types.no_protection input in
  match Enumerate.verify_control_plane input ~old_alloc:prev ~new_alloc:r.Ffc.alloc ~kc:1 with
  | Ok () -> Alcotest.fail "expected non-FFC update to be fragile"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 2/4: data-plane FFC worked example                           *)
(* ------------------------------------------------------------------ *)

(* Switches: s1 = 0, s2 = 1, s3 = 2, s4 = 3; flows s2->s4 and s3->s4 with a
   direct tunnel and a detour via s1. *)
let fig2_input () =
  let topo = Topo_gen.fig2 () in
  let t id hops = tunnel_of ~id topo hops in
  let flows =
    [
      Flow.create ~id:0 ~src:1 ~dst:3 [ t 0 [ 1; 3 ]; t 1 [ 1; 0; 3 ] ];
      Flow.create ~id:1 ~src:2 ~dst:3 [ t 2 [ 2; 3 ]; t 3 [ 2; 0; 3 ] ];
    ]
  in
  { Te_types.topo; flows; demands = [| 10.; 10. |] }

let test_fig4_data_plane () =
  let input = fig2_input () in
  let r = solve_ffc ~protection:(Te_types.protection ~ke:1 ()) input in
  (* Both tunnels of each flow must be able to carry the whole flow; the
     shared detour link s1-s4 (capacity 10) limits total to 10. *)
  check_float "throughput ke=1" 10. (Te_types.throughput r.Ffc.alloc);
  (match Enumerate.verify_data_plane input r.Ffc.alloc ~ke:1 ~kv:0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ke=1 not robust: %s" e);
  (* Non-FFC gets 20 but is fragile to one link failure. *)
  let basic = solve_ffc ~protection:Te_types.no_protection input in
  check_float "throughput non-FFC" 20. (Te_types.throughput basic.Ffc.alloc);
  match Enumerate.verify_data_plane input basic.Ffc.alloc ~ke:1 ~kv:0 with
  | Ok () -> Alcotest.fail "expected non-FFC allocation to be fragile"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Basic TE sanity                                                     *)
(* ------------------------------------------------------------------ *)

let test_basic_te_serves_light_demand () =
  let input = fig2_input () in
  let light = { input with Te_types.demands = [| 3.; 4. |] } in
  match Basic_te.solve light with
  | Ok alloc ->
    check_float "all demand served" 7. (Te_types.throughput alloc);
    let loads = Te_types.link_loads light alloc in
    Array.iter
      (fun (l : Topology.link) ->
        Alcotest.(check bool) "within capacity" true
          (loads.(l.Topology.id) <= l.Topology.capacity +. 1e-6))
      (Topology.links light.Te_types.topo)
  | Error e -> Alcotest.fail e

let test_reserved_capacity () =
  let input = fig2_input () in
  (* Reserve 5 units on every link: halves the available network. *)
  let reserved = Array.make (Topology.num_links input.Te_types.topo) 5. in
  match Basic_te.solve ~reserved input with
  | Ok alloc ->
    let loads = Te_types.link_loads input alloc in
    Array.iter
      (fun (l : Topology.link) ->
        Alcotest.(check bool) "respects reservation" true
          (loads.(l.Topology.id) <= (l.Topology.capacity -. 5.) +. 1e-6))
      (Topology.links input.Te_types.topo)
  | Error e -> Alcotest.fail e

(* A negative or NaN demand fails before the solver runs: both checked
   entry points return an [`Infeasible] error naming the flow instead of
   raising. An infinite demand is well-formed (the network caps the
   flow). *)
let test_malformed_demand () =
  let input = (Ffc_sim.Scenario.snet (Rng.create 42)).Ffc_sim.Scenario.input in
  let flow = 3 in
  let with_demand d =
    let demands = Array.copy input.Te_types.demands in
    demands.(flow) <- d;
    { input with Te_types.demands }
  in
  let config = Ffc.config ~protection:(Te_types.protection ~ke:1 ()) () in
  let entry_points =
    [
      ("basic TE", fun i -> Result.map ignore (Basic_te.solve_checked i));
      ("FFC", fun i -> Result.map ignore (Ffc.solve_checked ~config i));
    ]
  in
  let names_flow msg =
    let needle = Printf.sprintf "flow %d " flow in
    let n = String.length needle in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, solve) ->
      List.iter
        (fun d ->
          match solve (with_demand d) with
          | Ok () -> Alcotest.failf "%s: demand %g accepted" name d
          | Error (f : Te_types.solve_failure) ->
            Alcotest.(check string)
              (Printf.sprintf "%s, demand %g: kind" name d)
              "infeasible"
              (Te_types.failure_kind_label f.Te_types.kind);
            if not (names_flow f.Te_types.message) then
              Alcotest.failf "%s, demand %g: %S does not name flow %d" name d
                f.Te_types.message flow)
        [ -1.; nan ];
      match solve (with_demand infinity) with
      | Ok () -> ()
      | Error f -> Alcotest.failf "%s, infinite demand: %s" name f.Te_types.message)
    entry_points

(* The basic-TE LP kept between intervals against a fresh build. The
   reference is basic TE built the way it was before the LP was kept: a
   fresh model whose [b_f] bounds are created at the demands, solved once.
   Both sides run under a constant clock, so the wall-time fields of their
   stats are equal too. *)
let fresh_basic_te ?warm_start (input : Te_types.input) =
  let model = Ffc_lp.Model.create () in
  let vars = Formulation.make_vars model input in
  Formulation.capacity_constraints vars input;
  Formulation.demand_constraints vars input;
  Ffc_lp.Model.maximize model (Formulation.total_rate_expr vars);
  Formulation.solve ~label:"basic TE" ~presolve:false ?warm_start
    ~started_ms:(Ffc_util.Clock.now_ms ()) model
  |> Result.map (fun (sol, stats) ->
         ( Formulation.alloc_of_solution vars input (Ffc_lp.Model.value sol),
           Ffc_lp.Model.solution_basis sol,
           stats ))

let alloc_bits (a : Te_types.allocation) =
  let bits = Array.map Int64.bits_of_float in
  (bits a.Te_types.bf, Array.map bits a.Te_types.af)

let check_same_alloc label a b =
  if alloc_bits a <> alloc_bits b then Alcotest.failf "%s: allocations differ" label

(* A re-solve that resumes the kept solver state reaches an optimum of the
   same LP, not necessarily the fresh build's vertex: its throughput (the
   objective) equals the fresh build's within 1e-9 relative, and its
   allocation meets every bound of Eqns 1-4 within 1e-6 -- each link's
   load within its capacity, each flow's grant within its demand and its
   tunnels' sum, and no rate negative. *)
let check_same_optimum label (input : Te_types.input) ~fresh (alloc : Te_types.allocation) =
  let tol = 1e-6 in
  let t = Te_types.throughput alloc and t' = Te_types.throughput fresh in
  if abs_float (t -. t') > 1e-9 *. abs_float t' then
    Alcotest.failf "%s: throughput %.17g, fresh build %.17g" label t t';
  let loads = Te_types.link_loads input alloc in
  Array.iter
    (fun (l : Topology.link) ->
      if loads.(l.Topology.id) > l.Topology.capacity +. tol then
        Alcotest.failf "%s: link %d carries %.17g over capacity %g" label l.Topology.id
          loads.(l.Topology.id) l.Topology.capacity)
    (Topology.links input.Te_types.topo);
  List.iter
    (fun (f : Flow.t) ->
      let id = f.Flow.id in
      let bf = alloc.Te_types.bf.(id) and af = alloc.Te_types.af.(id) in
      if bf < -.tol || bf > input.Te_types.demands.(id) +. tol then
        Alcotest.failf "%s: flow %d granted %.17g of demand %g" label id bf
          input.Te_types.demands.(id);
      if Array.exists (fun a -> a < -.tol) af || Array.fold_left ( +. ) 0. af < bf -. tol then
        Alcotest.failf "%s: flow %d's tunnels do not carry its grant" label id)
    input.Te_types.flows

let check_same_failure label (expected : Te_types.solve_failure) (f : Te_types.solve_failure) =
  Alcotest.(check string)
    (label ^ ": kind")
    (Te_types.failure_kind_label expected.Te_types.kind)
    (Te_types.failure_kind_label f.Te_types.kind);
  Alcotest.(check string) (label ^ ": message") expected.Te_types.message f.Te_types.message

(* Default L-Net (topology seed 42) and a second network, each with a
   30-interval calibrated demand series at traffic scale 1.0. *)
let kept_lp_networks () =
  List.map
    (fun seed ->
      let sc = Ffc_sim.Scenario.lnet_sim (Rng.create seed) in
      ( sc.Ffc_sim.Scenario.input,
        Ffc_sim.Scenario.demand_series (Rng.create 7) sc ~scale:1.0 ~intervals:30 ))
    [ 42; 43 ]

(* [f ()] with the Obs registry recorded from zero, and the registry's
   solver-layer metrics ([revised.*], [lu.*], [model.*]) after it. Obs must
   be enabled. *)
let solver_registry f =
  let module Obs = Ffc_obs.Obs in
  Obs.reset ();
  let r = f () in
  let solver_metric (name, _) =
    List.exists (fun prefix -> String.starts_with ~prefix name) [ "revised."; "lu."; "model." ]
  in
  (r, List.filter solver_metric (Obs.snapshot ()))

let with_registry f =
  let module Obs = Ffc_obs.Obs in
  Obs.enable ~tracing:false ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let resumes registry =
  match List.assoc_opt "revised.resumes" registry with
  | Some (Ffc_obs.Obs.Counter_v n) -> int_of_float n
  | _ -> Alcotest.fail "no revised.resumes counter"

(* One kept LP re-solved over the series, each solve warm from its own
   last basis. Its first solve is cold, as the fresh build's, and equals
   it bit for bit: allocation, basis (statuses and keys) and stats record
   (solver record included). Every later solve resumes the kept solver
   state and reaches the fresh build's optimum ([check_same_optimum]); the
   fresh build, and [Basic_te.solve_checked]'s, start warm from the same
   basis and equal each other bit for bit. A failed re-solve (negative or
   NaN demand) fails as the fresh build does, with the same message, and
   the next re-solve still resumes. *)
let test_kept_lp_matches_fresh () =
  with_registry @@ fun () ->
  Ffc_util.Clock.with_hook (fun () -> 0.) @@ fun () ->
  let input, series = List.hd (kept_lp_networks ()) in
  let lp = Basic_te.lp input in
  let basis = ref None in
  Array.iteri
    (fun i demands ->
      let input = { input with Te_types.demands } in
      let label = Printf.sprintf "interval %d" i in
      let kept, registry =
        solver_registry (fun () -> Basic_te.solve_lp ~presolve:false ?warm_start:!basis lp input)
      in
      Alcotest.(check int) (label ^ ": resumed") (if i = 0 then 0 else 1) (resumes registry);
      (match
         ( kept,
           fresh_basic_te ?warm_start:!basis input,
           Basic_te.solve_checked ~presolve:false ?warm_start:!basis input )
       with
      | Ok (a, b, st), Ok (a', b', st'), Ok (a'', b'') ->
        check_same_alloc (label ^ ", solve_checked") a' a'';
        Alcotest.(check bool) (label ^ ": solve_checked's basis") true (b' = b'');
        if i = 0 then begin
          check_same_alloc label a' a;
          Alcotest.(check bool) (label ^ ": same basis") true (b = b');
          Alcotest.(check bool) (label ^ ": same stats") true (st = st')
        end
        else begin
          check_same_optimum label input ~fresh:a' a;
          let solver = Option.get st.Formulation.solver in
          Alcotest.(check bool) (label ^ ": warm") true solver.Ffc_lp.Problem.warm_started;
          Alcotest.(check string) (label ^ ": reason") "optimal"
            solver.Ffc_lp.Problem.status_reason
        end;
        basis := Some b
      | _ -> Alcotest.failf "%s: a solve failed" label);
      if i = 10 || i = 20 then
        List.iter
          (fun d ->
            let demands = Array.copy demands in
            demands.(3) <- d;
            let bad = { input with Te_types.demands } in
            match (Basic_te.solve_lp ~presolve:false lp bad, Basic_te.solve_checked bad) with
            | Error f, Error expected ->
              check_same_failure (Printf.sprintf "%s, demand %g" label d) expected f
            | _ -> Alcotest.failf "%s: demand %g accepted" label d)
          [ -1.; nan ])
    series;
  Alcotest.check_raises "another network"
    (Invalid_argument "Basic_te.solve_lp: input of another topology or flow list") (fun () ->
      let other, _ = List.nth (kept_lp_networks ()) 1 in
      ignore (Basic_te.solve_lp lp other))

(* A [Basic]-mode controller against fresh builds chained with their own
   warm starts: 30 steps on default L-Net, then 10 on another network, 5
   on a copy of the first flow list (equal, but another value) and 15 back
   on the first network, each a rebuild where the network changes. The
   first step is cold on both sides and equal bit for bit: allocation,
   solver record ([per_class_stats], the joint LP's [(-1, stats)]) and
   solver-layer registry (every [revised.*], [lu.*] and [model.*] metric,
   recorded from zero). Every other step reaches the fresh build's optimum
   ([check_same_optimum]); it resumes the kept solver state exactly when
   the network did not change, and a rebuild starts warm from the
   controller's last basis, mapped by key. A NaN demand fails the basic-TE
   rung with the fresh build's failure. *)
let test_kept_lp_in_controller () =
  with_registry @@ fun () ->
  Ffc_util.Clock.with_hook (fun () -> 0.) @@ fun () ->
  let a, b =
    match kept_lp_networks () with [ a; b ] -> (a, b) | _ -> assert false
  in
  let input_a, series_a = a and input_b, series_b = b in
  let copy_a =
    { input_a with Te_types.flows = List.map Fun.id input_a.Te_types.flows }
  in
  let steps =
    List.concat
      [
        List.map (fun d -> (input_a, d)) (Array.to_list series_a);
        List.map (fun d -> (input_b, d)) (Array.to_list (Array.sub series_b 0 10));
        List.map (fun d -> (copy_a, d)) (Array.to_list (Array.sub series_a 0 5));
        List.map (fun d -> (input_a, d)) (Array.to_list (Array.sub series_a 5 15));
      ]
  in
  let rebuilt i = i = 0 || i = 30 || i = 40 || i = 45 in
  let ctrl = Controller.create (Controller.config Controller.Basic) in
  let prev = ref (Te_types.zero_allocation input_a) and basis = ref None in
  List.iteri
    (fun i ((input : Te_types.input), demands) ->
      let input = { input with Te_types.demands } in
      let label = Printf.sprintf "step %d" i in
      if i = 30 || i = 40 || i = 45 then prev := Te_types.zero_allocation input;
      let s, registry = solver_registry (fun () -> Controller.step ctrl input ~prev:!prev) in
      let fresh, fresh_registry =
        solver_registry (fun () -> fresh_basic_te ?warm_start:!basis input)
      in
      Alcotest.(check string) (label ^ ": rung") "basic-te" s.Controller.label;
      Alcotest.(check int) (label ^ ": resumed") (if rebuilt i then 0 else 1) (resumes registry);
      (match fresh with
      | Ok (alloc, b, stats) ->
        if i = 0 then begin
          check_same_alloc label alloc s.Controller.alloc;
          if s.Controller.per_class_stats <> [ (-1, stats) ] then
            Alcotest.failf "%s: the rung's solver record differs from the fresh solve's" label;
          if registry <> fresh_registry then Alcotest.failf "%s: solver registries differ" label
        end
        else check_same_optimum label input ~fresh:alloc s.Controller.alloc;
        basis := Some b
      | Error f -> Alcotest.failf "%s: %s" label f.Te_types.message);
      prev := s.Controller.alloc)
    steps;
  let input, demands = List.nth steps (List.length steps - 1) in
  let demands = Array.copy demands in
  demands.(3) <- nan;
  let bad = { input with Te_types.demands } in
  let s = Controller.step ctrl bad ~prev:!prev in
  match (s.Controller.attempts, Basic_te.solve_checked bad) with
  | { Controller.outcome = Error f; kind = Controller.Basic_te; _ } :: _, Error expected ->
    check_same_failure "NaN demand" expected f
  | _ -> Alcotest.fail "NaN demand: the basic-TE rung did not fail"

(* ------------------------------------------------------------------ *)
(* Allocation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  let alloc = { Te_types.bf = [| 8. |]; af = [| [| 4.; 2.; 2. |] |] } in
  Alcotest.(check (array (float 1e-9))) "weights" [| 0.5; 0.25; 0.25 |] (Te_types.weights alloc 0)

let test_weights_zero_alloc () =
  (* No installed allocation means no forwarding rules: zero weights. *)
  let alloc = { Te_types.bf = [| 0. |]; af = [| [| 0.; 0. |] |] } in
  Alcotest.(check (array (float 1e-9))) "zero" [| 0.; 0. |] (Te_types.weights alloc 0)

let test_max_oversubscription () =
  let input = fig2_input () in
  let loads = Array.make (Topology.num_links input.Te_types.topo) 0. in
  let l = find_link input.Te_types.topo 0 3 in
  loads.(l.Topology.id) <- 12.;
  check_float "20%" 20. (Te_types.max_oversubscription input loads)

let test_flow_pq () =
  let input = fig2_input () in
  List.iter
    (fun f ->
      let p, q = Flow.p_q f in
      Alcotest.(check (pair int int)) "p,q" (1, 1) (p, q))
    input.Te_types.flows

let test_tau () =
  let input = fig2_input () in
  let f = List.hd input.Te_types.flows in
  Alcotest.(check int) "tau ke=1" 1 (Flow.tau f ~ke:1 ~kv:0);
  Alcotest.(check int) "tau kv=1" 1 (Flow.tau f ~ke:0 ~kv:1);
  Alcotest.(check int) "tau both" 0 (Flow.tau f ~ke:1 ~kv:1)

(* ------------------------------------------------------------------ *)
(* Randomised robustness properties                                    *)
(* ------------------------------------------------------------------ *)

let random_instance seed =
  let rng = Rng.create seed in
  let topo = Topo_gen.lnet ~sites:6 rng in
  let spec = Traffic.make_flows ~tunnels_per_flow:3 ~nflows:5 rng topo in
  let demands =
    Array.map (fun d -> d *. (0.5 +. Rng.float rng 1.5)) spec.Traffic.base_demand
  in
  { Te_types.topo; flows = spec.Traffic.flows; demands }

let seeds = QCheck.Gen.int_range 0 10_000

let prop_data_ffc_robust =
  QCheck.Test.make ~count:25 ~name:"data-plane FFC survives all single link failures"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let r = solve_ffc ~protection:(Te_types.protection ~ke:1 ()) input in
      match Enumerate.verify_data_plane input r.Ffc.alloc ~ke:1 ~kv:0 with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_data_ffc_switch_robust =
  QCheck.Test.make ~count:15 ~name:"data-plane FFC survives single switch failures"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let r = solve_ffc ~protection:(Te_types.protection ~kv:1 ()) input in
      match Enumerate.verify_data_plane input r.Ffc.alloc ~ke:0 ~kv:1 with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_control_ffc_robust =
  QCheck.Test.make ~count:20 ~name:"control-plane FFC survives stuck switches"
    (QCheck.make (QCheck.Gen.pair seeds (QCheck.Gen.int_range 1 2)))
    (fun (seed, kc) ->
      let input = random_instance seed in
      (* Old config: basic TE on perturbed demands. *)
      let rng = Rng.create (seed + 77) in
      let old_demands = Array.map (fun d -> d *. (0.4 +. Rng.float rng 1.2)) input.Te_types.demands in
      let prev =
        match Basic_te.solve { input with Te_types.demands = old_demands } with
        | Ok a -> a
        | Error e -> QCheck.Test.fail_report e
      in
      let r = solve_ffc ~prev ~protection:(Te_types.protection ~kc ()) input in
      match Enumerate.verify_control_plane input ~old_alloc:prev ~new_alloc:r.Ffc.alloc ~kc with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_ffc_below_basic =
  QCheck.Test.make ~count:25 ~name:"FFC throughput never exceeds basic TE"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let basic =
        match Basic_te.solve input with Ok a -> a | Error e -> QCheck.Test.fail_report e
      in
      let r = solve_ffc ~protection:(Te_types.protection ~ke:1 ()) input in
      Te_types.throughput r.Ffc.alloc <= Te_types.throughput basic +. 1e-5)

let prop_encodings_equal =
  QCheck.Test.make ~count:20 ~name:"sorting-network and duality encodings agree"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let r1 = solve_ffc ~encoding:`Sorting_network ~protection:(Te_types.protection ~ke:1 ()) input in
      let r2 = solve_ffc ~encoding:`Duality ~protection:(Te_types.protection ~ke:1 ()) input in
      abs_float (Te_types.throughput r1.Ffc.alloc -. Te_types.throughput r2.Ffc.alloc) < 1e-5)

(* The paper's optimality claims (§4.4.3): control-plane FFC is optimal, and
   data-plane FFC is optimal with link-disjoint tunnels and kv = 0 — i.e.
   the compact formulation matches the enumerated Eqn 5/9 oracle. *)
let prop_control_matches_oracle =
  QCheck.Test.make ~count:12 ~name:"compact control FFC matches enumerated oracle"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let rng = Rng.create (seed + 123) in
      let old_demands = Array.map (fun d -> d *. (0.4 +. Rng.float rng 1.2)) input.Te_types.demands in
      let prev =
        match Basic_te.solve { input with Te_types.demands = old_demands } with
        | Ok a -> a
        | Error e -> QCheck.Test.fail_report e
      in
      let protection = Te_types.protection ~kc:2 () in
      let compact = solve_ffc ~prev ~protection input in
      match Enumerate.solve ~protection ~prev input with
      | Ok oracle ->
        abs_float (Te_types.throughput compact.Ffc.alloc -. Te_types.throughput oracle.Ffc.alloc)
        < 1e-4
      | Error e -> QCheck.Test.fail_report e)

let prop_data_matches_oracle_disjoint =
  QCheck.Test.make ~count:12 ~name:"compact data FFC matches oracle on link-disjoint tunnels"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      (* Traffic.make_flows uses p = 1 (link-disjoint) already. *)
      let all_disjoint =
        List.for_all (fun f -> fst (Flow.p_q f) = 1) input.Te_types.flows
      in
      QCheck.assume all_disjoint;
      let protection = Te_types.protection ~ke:1 () in
      let compact = solve_ffc ~protection input in
      match Enumerate.solve ~protection input with
      | Ok oracle ->
        abs_float (Te_types.throughput compact.Ffc.alloc -. Te_types.throughput oracle.Ffc.alloc)
        < 1e-4
      | Error e -> QCheck.Test.fail_report e)

let prop_data_never_beats_oracle =
  QCheck.Test.make ~count:12 ~name:"compact data FFC is a relaxation-safe under-approximation"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let protection = Te_types.protection ~ke:1 ~kv:1 () in
      let compact = solve_ffc ~protection input in
      match Enumerate.solve ~protection input with
      | Ok oracle ->
        Te_types.throughput compact.Ffc.alloc <= Te_types.throughput oracle.Ffc.alloc +. 1e-4
      | Error e -> QCheck.Test.fail_report e)

(* Eqn 15's tunnel-count protection side-effect (§4.4.1): a (ke=3, kv=0)
   configuration with (1,3)-disjoint tunnels also survives one switch
   failure. *)
let prop_cross_protection =
  QCheck.Test.make ~count:8 ~name:"(ke=3) with (1,3) tunnels also covers one switch failure"
    (QCheck.make seeds) (fun seed ->
      let input = random_instance seed in
      let enough = List.for_all (fun f -> Flow.num_tunnels f >= 3) input.Te_types.flows in
      QCheck.assume enough;
      let r = solve_ffc ~protection:(Te_types.protection ~ke:3 ()) input in
      (* Check kt = 3 tunnel failures covers q <= 3 switch-induced loss. *)
      match Enumerate.verify_data_plane input r.Ffc.alloc ~ke:0 ~kv:1 with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ------------------------------------------------------------------ *)
(* §4.4.3 computational-overhead claims                                 *)
(* ------------------------------------------------------------------ *)

(* The paper: control-plane FFC adds |E| + O(kc |V| |E|) constraints and
   data-plane FFC O(sum_f |T_f| min(|T_f|-tau, tau)) — i.e. the formulation
   stays O(kn), not exponential. Check our encoding against explicit
   per-instance bounds derived the same way. *)
let lp_rows input ~protection ~prev =
  let config =
    Ffc.config ~protection ~encoding:`Sorting_network ~mice_fraction:0. ~ingress_skip_fraction:0.
      ()
  in
  match Ffc.solve ~config ?prev input with
  | Ok r -> r.Ffc.stats.Ffc.lp_rows
  | Error e -> Alcotest.fail e

let test_control_constraint_growth () =
  let input = random_instance 42 in
  let prev = match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.fail e in
  let base = lp_rows input ~protection:Te_types.no_protection ~prev:None in
  let kc = 2 in
  let rows = lp_rows input ~protection:(Te_types.protection ~kc ()) ~prev:(Some prev) in
  (* Bound: 2 beta rows per (flow, tunnel) [3 with no prev2/rl], one M-sum
     row per link, and <= 3 comparator rows per bubble pass element:
     sum_e 3 kc N_e where N_e = ingresses crossing link e. *)
  let tunnels =
    List.fold_left (fun acc f -> acc + Flow.num_tunnels f) 0 input.Te_types.flows
  in
  let per_link = Formulation.crossings_by_link input in
  let comparator_bound =
    Array.fold_left
      (fun acc crossings ->
        let n_e = List.length (Formulation.by_ingress crossings) in
        if n_e = 0 then acc else acc + 1 + (3 * kc * n_e))
      0 per_link
  in
  let bound = base + (3 * tunnels) + comparator_bound in
  Alcotest.(check bool)
    (Printf.sprintf "rows %d within O(kc n) bound %d" rows bound)
    true (rows <= bound)

let test_data_constraint_growth () =
  let input = random_instance 42 in
  let base = lp_rows input ~protection:Te_types.no_protection ~prev:None in
  let rows = lp_rows input ~protection:(Te_types.protection ~ke:1 ()) ~prev:None in
  (* Bound: per flow, one M-sum row plus 3 rows per comparator of a
     tau-stage partial bubble network over |T_f| elements. *)
  let bound =
    List.fold_left
      (fun acc f ->
        let nt = Flow.num_tunnels f in
        let tau = max 0 (Flow.tau f ~ke:1 ~kv:0) in
        acc + 1 + (3 * tau * nt))
      base input.Te_types.flows
  in
  Alcotest.(check bool)
    (Printf.sprintf "rows %d within O(tau |T|) bound %d" rows bound)
    true (rows <= bound)

(* ------------------------------------------------------------------ *)
(* Solver instrumentation                                               *)
(* ------------------------------------------------------------------ *)

(* The wall-clock split must be real time, not CPU ticks: even a sleep-free
   sub-millisecond solve takes a positive number of nanoseconds on the
   monotonic clock (the old [Sys.time] measurement rounded such solves to
   exactly 0). *)
let test_stats_wall_clock () =
  let input = fig3_input () in
  let prev = fig3_old_alloc () in
  let r = solve_ffc ~prev ~protection:(Te_types.protection ~kc:1 ()) input in
  Alcotest.(check bool) "solve_ms positive" true (r.Ffc.stats.Ffc.solve_ms > 0.);
  Alcotest.(check bool) "build_ms positive" true (r.Ffc.stats.Ffc.build_ms > 0.);
  match r.Ffc.stats.Ffc.solver with
  | None -> Alcotest.fail "the solve reported no solver stats"
  | Some s ->
    Alcotest.(check bool)
      "did simplex work" true
      (s.Ffc_lp.Problem.phase1_iterations + s.Ffc_lp.Problem.phase2_iterations > 0)

(* ------------------------------------------------------------------ *)
(* Warm starts across FFC's data-dependent row set                     *)
(* ------------------------------------------------------------------ *)

(* The §6 skip rule makes the control-plane rows depend on [prev]. Two
   L-Net (2,1,0) duality solves whose [prev]s differ in one link's
   considered-ingress set build different row sets; the second, seeded
   with the first's basis, must still start warm (mapped by key) and reach
   the cold optimum. *)
let test_ffc_warm_across_skip_change () =
  let rng = Rng.create 3 in
  let topo = Topo_gen.lnet ~sites:8 rng in
  let spec = Traffic.make_flows ~nflows:16 rng topo in
  let input = { Te_types.topo; flows = spec.Traffic.flows; demands = spec.Traffic.base_demand } in
  let prev_a =
    match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.fail e
  in
  (* A one-link tunnel carrying load in [prev_a], on a link with more than
     kc = 2 considered ingresses where no other crossing from its ingress
     carries load: zeroing that tunnel drops exactly this ingress from this
     link's considered set, and one M-sum element from the LP. *)
  let per_link = Formulation.crossings_by_link input in
  let load (c : Formulation.crossing) =
    prev_a.Te_types.af.(c.Formulation.flow.Flow.id).(c.Formulation.tidx)
  in
  let candidate =
    List.find_map
      (fun (f : Flow.t) ->
        List.find_map
          (fun (ti, (t : Tunnel.t)) ->
            match t.Tunnel.links with
            | [ l ] when prev_a.Te_types.af.(f.Flow.id).(ti) > 0. ->
              let groups = Formulation.by_ingress per_link.(l.Topology.id) in
              let loaded = List.filter (fun (_, cs) -> List.exists (fun c -> load c > 0.) cs) groups in
              let own = List.assoc f.Flow.src groups in
              let others_loaded =
                List.exists
                  (fun (c : Formulation.crossing) ->
                    (c.Formulation.flow.Flow.id <> f.Flow.id || c.Formulation.tidx <> ti)
                    && load c > 0.)
                  own
              in
              if List.length loaded > 3 && not others_loaded then Some (f.Flow.id, ti) else None
            | _ -> None)
          (List.mapi (fun ti t -> (ti, t)) f.Flow.tunnels))
      input.Te_types.flows
  in
  let fid, ti =
    match candidate with Some c -> c | None -> Alcotest.fail "no single-link tunnel to drop"
  in
  let prev_b =
    { prev_a with Te_types.af = Array.map Array.copy prev_a.Te_types.af }
  in
  prev_b.Te_types.af.(fid).(ti) <- 0.;
  let config =
    Ffc.config ~protection:(Te_types.protection ~kc:2 ~ke:1 ()) ~encoding:`Duality
      ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  let solve ?warm_start prev =
    match Ffc.solve ~config ~prev ~presolve:false ?warm_start input with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let a = solve prev_a in
  let cold = solve prev_b in
  let warm = solve ~warm_start:a.Ffc.basis prev_b in
  Alcotest.(check int) "one M-sum row fewer" (a.Ffc.stats.Ffc.lp_rows - 1)
    warm.Ffc.stats.Ffc.lp_rows;
  (match warm.Ffc.stats.Ffc.solver with
  | Some s ->
    Alcotest.(check bool) "warm started" true s.Ffc_lp.Problem.warm_started;
    Alcotest.(check bool) "mapped by key" true s.Ffc_lp.Problem.warm_remapped
  | None -> Alcotest.fail "no solver stats");
  let obj (r : Ffc.result) = Te_types.throughput r.Ffc.alloc in
  Alcotest.(check (float 1e-6)) "warm optimum = cold optimum" (obj cold) (obj warm)

(* The warm path's pivots, pinned. Default L-Net (20 sites, 40 flows) at
   traffic scale 0.6, FFC (2,1,0) with the duality encoding, chained the
   way the controller chains it: each interval plans against the previous
   allocation, warm-started from the previous keyed basis, presolve off.
   Each solve's phase iterations, refactorisations and throughput bits are
   pinned. A change here moves a pivot: that is a behaviour change, never a
   pin to update. *)
let test_ffc_warm_chain_pinned () =
  let sc = Ffc_sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Ffc_sim.Scenario.input in
  let series = Ffc_sim.Scenario.demand_series (Rng.create 7) sc ~scale:0.6 ~intervals:5 in
  let config =
    Ffc.config ~protection:(Te_types.protection ~kc:2 ~ke:1 ()) ~encoding:`Duality
      ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  let prev =
    ref
      (match Basic_te.solve { input with Te_types.demands = series.(0) } with
      | Ok a -> a
      | Error e -> Alcotest.fail e)
  in
  let basis = ref None in
  let solve demands =
    match
      Ffc.solve ~config ~prev:!prev ~presolve:false ?warm_start:!basis
        { input with Te_types.demands }
    with
    | Error e -> Alcotest.fail e
    | Ok r ->
      prev := r.Ffc.alloc;
      basis := Some r.Ffc.basis;
      let s = Option.get r.Ffc.stats.Ffc.solver in
      ( (s.Ffc_lp.Problem.phase1_iterations, s.Ffc_lp.Problem.phase2_iterations),
        ( s.Ffc_lp.Problem.refactorisations,
          Int64.bits_of_float (Te_types.throughput r.Ffc.alloc) ) )
  in
  Alcotest.(check (list (pair (pair int int) (pair int int64))))
    "phase 1, phase 2, refactorisations, throughput bits"
    [
      ((0, 1326), (14, 4652760651352402517L));
      ((109, 54), (2, 4652953962213402050L));
      ((35, 0), (1, 4653135005362256305L));
      ((41, 0), (1, 4653065376728097434L));
      ((46, 0), (1, 4653123179205537652L));
    ]
    (List.map solve (Array.to_list series))

(* The computational form, pinned. Each of five formulations is chained
   over 13 calibrated intervals of default L-Net (topology seed 42, 40
   flows) the way the controller chains it (each interval plans against
   the previous allocation, warm-started, presolve off), and every
   interval's [Model.to_problem] output, presolve off and on, goes into
   one MD5: each row as [Problem.rows] lists it, with [%h] coefficients
   and right-hand side, every column's bounds and cost in [%h], and the
   keys. The column layout itself is left out, so a change of how the
   problem stores its columns keeps the digests, and a change of any
   coefficient's bits, any row's order or any key moves them. *)
let form_digest config =
  let open Ffc_lp in
  let sc = Ffc_sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Ffc_sim.Scenario.input in
  let series = Ffc_sim.Scenario.demand_series (Rng.create 7) sc ~scale:1.0 ~intervals:13 in
  let buf = Buffer.create (1 lsl 20) in
  let add_form presolve model =
    match Model.to_problem ~presolve model with
    | None -> Buffer.add_string buf "presolve-infeasible\n"
    | Some (p, keys) ->
      let { Problem.row_start; row_cols; row_vals } = Problem.rows p in
      Printf.bprintf buf "%d %d\n" p.Problem.nstruct p.Problem.nrows;
      for i = 0 to p.Problem.nrows - 1 do
        for k = row_start.(i) to row_start.(i + 1) - 1 do
          Printf.bprintf buf "%d:%h " row_cols.(k) row_vals.(k)
        done;
        Printf.bprintf buf "= %h\n" p.Problem.rhs.(i)
      done;
      for j = 0 to p.Problem.ncols - 1 do
        Printf.bprintf buf "%h %h %h\n" p.Problem.lb.(j) p.Problem.ub.(j) p.Problem.obj.(j)
      done;
      Array.iter (fun k -> Printf.bprintf buf "%x " k) keys;
      Buffer.add_char buf '\n'
  in
  let prev =
    ref
      (match Basic_te.solve { input with Te_types.demands = series.(0) } with
      | Ok a -> a
      | Error e -> Alcotest.fail e)
  in
  let basis = ref None in
  Array.iter
    (fun demands ->
      let input = { input with Te_types.demands } in
      let vars = Ffc.build ~config ~prev:!prev input in
      let model = vars.Formulation.model in
      Ffc_lp.Model.maximize model (Formulation.total_rate_expr vars);
      add_form false model;
      add_form true model;
      match Ffc.solve ~config ~prev:!prev ~presolve:false ?warm_start:!basis input with
      | Error e -> Alcotest.fail e
      | Ok r ->
        prev := r.Ffc.alloc;
        basis := Some r.Ffc.basis)
    series;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_form_digests_pinned () =
  let duality ?mice_fraction ?ingress_skip_fraction ?rescale_aware ~kc ~ke ~kv () =
    Ffc.config
      ~protection:(Te_types.protection ~kc ~ke ~kv ())
      ~encoding:`Duality ?mice_fraction ?ingress_skip_fraction ?rescale_aware ()
  in
  Alcotest.(check (list (pair string string)))
    "form digests"
    [
      ("basic TE", "fa8f467c1455464dde159336d74ada82");
      ("FFC (2,1,0) duality, mice 0, skip 0", "f44bc5a5f3d6f0db88667cb1b164bfb4");
      ("FFC (1,1,0) duality, defaults", "c6b3a14edd546bcb85d44e94efff9cbb");
      ("FFC (3,0,1) duality, rescale-aware", "144b8e3ea6ddea7b1a9fbee5cd73ad45");
      ("FFC (2,1,0) sorting network", "28c53c84b3a84c770b6bdf3984df70fd");
    ]
    (List.map
       (fun (name, config) -> (name, form_digest config))
       [
         ("basic TE", Ffc.config ());
         ( "FFC (2,1,0) duality, mice 0, skip 0",
           duality ~mice_fraction:0. ~ingress_skip_fraction:0. ~kc:2 ~ke:1 ~kv:0 () );
         ("FFC (1,1,0) duality, defaults", duality ~kc:1 ~ke:1 ~kv:0 ());
         ("FFC (3,0,1) duality, rescale-aware", duality ~rescale_aware:true ~kc:3 ~ke:0 ~kv:1 ());
         ( "FFC (2,1,0) sorting network",
           Ffc.config
             ~protection:(Te_types.protection ~kc:2 ~ke:1 ())
             ~encoding:`Sorting_network () );
       ])

(* Allocation tripwires: per-element allocation creeping back into the
   warm re-solve path fails [dune runtest]. Minor words are counted with
   [Gc.minor_words] around deterministic work on one domain; arrays longer
   than 256 words are allocated outside the minor heap and do not count. *)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* [Model.to_problem] on the L-Net FFC (2,1,0) LP (edgebench's
   configuration, calibrated demands, basic TE as the previous
   allocation) allocates fewer minor words than the LP has columns: its
   columns are three flat arrays whatever the LP's size. *)
let test_to_problem_allocation () =
  let sc = Ffc_sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Ffc_sim.Scenario.input in
  let prev = match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.fail e in
  let config =
    Ffc.config ~protection:(Te_types.protection ~kc:2 ~ke:1 ()) ~encoding:`Duality
      ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  let vars = Ffc.build ~config ~prev input in
  let model = vars.Formulation.model in
  Ffc_lp.Model.maximize model (Formulation.total_rate_expr vars);
  let p, words = minor_words (fun () -> Ffc_lp.Model.to_problem ~presolve:false model) in
  let ncols =
    match p with Some (p, _) -> p.Ffc_lp.Problem.ncols | None -> Alcotest.fail "presolve off"
  in
  Printf.printf "to_problem: %.0f minor words for %d columns\n" words ncols;
  if not (words < float_of_int ncols) then
    Alcotest.failf "to_problem allocated %.0f minor words for %d columns" words ncols

(* Steps 20-30 of a seeded warm [Controller.step] chain on default L-Net
   (calibrated demands, audit on) allocate at most [bound] minor words:
   about 1.5 times what they took on OCaml 5.1.1, run alone (2,167,365 for
   FFC (2,1,0), 309,489 for basic TE; the flat problem, streamed rows and
   allocation-light fault checks halved them from 4,684,743 and 794,705).
   After the suite's earlier tests the FFC chain reads lower (1,926,245).
   Keeping the basic-TE LP between steps took basic TE from 298,039 to
   143,959, so its bound now fails a chain that rebuilds the LP every
   step. *)
let step_chain_words mode =
  let sc = Ffc_sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Ffc_sim.Scenario.input in
  let series = Ffc_sim.Scenario.demand_series (Rng.create 7) sc ~scale:1.0 ~intervals:30 in
  let ctrl = Controller.create (Controller.config ~audit_seed:1 mode) in
  let prev = ref (Te_types.zero_allocation input) in
  let step demands =
    let s = Controller.step ctrl { input with Te_types.demands } ~prev:!prev in
    prev := s.Controller.alloc
  in
  Array.iteri (fun i d -> if i < 20 then step d) series;
  snd (minor_words (fun () -> Array.iteri (fun i d -> if i >= 20 then step d) series))

let test_step_allocation () =
  let ffc_210 _ =
    Ffc.config ~protection:(Te_types.protection ~kc:2 ~ke:1 ()) ~encoding:`Duality
      ~mice_fraction:0. ~ingress_skip_fraction:0. ()
  in
  List.iter
    (fun (name, mode, bound) ->
      let words = step_chain_words mode in
      Printf.printf "%s: %.0f minor words over steps 20-30 (bound %.0f)\n" name words bound;
      if words > bound then
        Alcotest.failf "%s: steps 20-30 allocated %.0f minor words, above %.0f" name words bound)
    [
      ("FFC (2,1,0) duality", Controller.Ffc_ladder ffc_210, 3_232_000.);
      ("basic TE", Controller.Basic, 216_000.);
    ]

(* The §6 ingress-skip rule is an approximation, and this pins what it
   gives up. A warm controller chain on default L-Net runs FFC (2,1,0)
   duality for 30 intervals, each planned against the allocation the last
   one installed; every accepted step then goes through both exhaustive
   verifiers. With the paper's defaults (skip ingresses whose old load on a
   link is below 1e-5 of its capacity, 1% mice) two steps break Eqn 5 by a
   hair: a skipped stuck ingress overloads one link by about 2e-4 Gbps,
   above the verifiers' 1e-6 tolerance. With both rules off every step
   passes, at traffic scales 1.0 and 0.6. A solver change that moves these
   intervals re-pins them and says why, like any pivot pin. *)
let skip_rule_misses ~scale config =
  let sc = Ffc_sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Ffc_sim.Scenario.input in
  let series = Ffc_sim.Scenario.demand_series (Rng.create 7) sc ~scale ~intervals:30 in
  let ctrl = Controller.create (Controller.config (Controller.Ffc_ladder (fun _ -> config))) in
  let prev = ref (Te_types.zero_allocation input) in
  List.concat
    (List.mapi
       (fun i demands ->
         let input = { input with Te_types.demands } in
         let s = Controller.step ctrl input ~prev:!prev in
         let verdicts =
           [
             ( "rung",
               if s.Controller.kind = Controller.Full_protection then Ok ()
               else Error s.Controller.label );
             ( "control",
               Enumerate.verify_control_plane input ~old_alloc:!prev ~new_alloc:s.Controller.alloc
                 ~kc:2 );
             ("data", Enumerate.verify_data_plane input s.Controller.alloc ~ke:1 ~kv:0);
           ]
         in
         prev := s.Controller.alloc;
         List.filter_map
           (function
             | _, Ok () -> None | check, Error e -> Some (Printf.sprintf "%d %s: %s" i check e))
           verdicts)
       (Array.to_list series))

let test_skip_rule_misses_pinned () =
  let config ?mice_fraction ?ingress_skip_fraction () =
    Ffc.config ~protection:(Te_types.protection ~kc:2 ~ke:1 ()) ~encoding:`Duality ?mice_fraction
      ?ingress_skip_fraction ()
  in
  let exact = config ~mice_fraction:0. ~ingress_skip_fraction:0. () in
  Alcotest.(check (list string))
    "paper defaults, scale 1.0"
    [
      "16 control: stuck=[17]: link s5->s16 overloaded: 100.000172 > 100.000000";
      "26 control: stuck=[15]: link s4->s5 overloaded: 40.000222 > 40.000000";
    ]
    (skip_rule_misses ~scale:1.0 (config ()));
  Alcotest.(check (list string)) "exact, scale 1.0" [] (skip_rule_misses ~scale:1.0 exact);
  Alcotest.(check (list string)) "exact, scale 0.6" [] (skip_rule_misses ~scale:0.6 exact)

(* Bland mode's leaving rule. The model [ffc solve --network snet --kc 1
   --objective mlu] builds (S-Net seed 42, basic TE as [prev]) is rebuilt
   here with the same calls as {!Mlu_te.solve}. Solved with presolve off,
   as every controller rung solves, its phase 1 is degenerate enough to
   run in Bland mode, and it cycles there unless ratio ties leave by the
   smallest basic index. *)
let test_bland_terminates () =
  let open Ffc_lp in
  let input = (Ffc_sim.Scenario.snet (Rng.create 42)).Ffc_sim.Scenario.input in
  let prev = match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.fail e in
  let config = Ffc.config ~protection:(Te_types.protection ~kc:1 ()) () in
  let build () =
    let model = Model.create () in
    let vars = Formulation.make_vars ~fixed_demand:true model input in
    Formulation.demand_constraints vars input;
    let u = Model.add_var model in
    Array.iter
      (fun (l : Topology.link) ->
        match vars.Formulation.crossings.(l.Topology.id) with
        | [] -> ()
        | crossings ->
          Model.ge model
            (Expr.var ~coeff:l.Topology.capacity u)
            (Formulation.load_expr vars crossings))
      (Topology.links input.Te_types.topo);
    Ffc.data_plane_constraints config vars input;
    let uf = Model.add_var model in
    Ffc.control_plane_constraints config vars input ~prev
      ~rhs:(fun (l : Topology.link) -> Expr.var ~coeff:l.Topology.capacity uf)
      ();
    Model.minimize model (Expr.add (Expr.var u) (Expr.var uf));
    model
  in
  let objective ?presolve ?max_iterations () =
    match Model.solve ?presolve ?max_iterations (build ()) with
    | Model.Optimal sol -> Model.objective_value sol
    | Model.Iteration_limit -> Alcotest.fail "iteration limit"
    | _ -> Alcotest.fail "not optimal"
  in
  let reference = objective () in
  (match Mlu_te.solve ~config ~prev input with
  | Ok r ->
    Alcotest.(check (float 1e-6)) "the model Mlu_te.solve builds" reference
      (r.Mlu_te.mlu +. Option.get r.Mlu_te.fault_mlu)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-6)) "presolve off reaches the presolve-on optimum" reference
    (objective ~presolve:false ~max_iterations:20_000 ())

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "paper-examples",
        [
          case "figure 5 control-plane numbers" test_fig5_control_plane;
          case "figure 5 allocations verified robust" test_fig5_verified_robust;
          case "figure 3 non-FFC fragile" test_fig3_non_ffc_not_robust;
          case "figure 4 data-plane" test_fig4_data_plane;
        ] );
      ( "basic-te",
        [
          case "serves light demand fully" test_basic_te_serves_light_demand;
          case "reserved capacity honoured" test_reserved_capacity;
          case "malformed demand is an Infeasible error" test_malformed_demand;
          case "kept LP matches a fresh build" test_kept_lp_matches_fresh;
          case "kept LP in the controller matches fresh builds" test_kept_lp_in_controller;
        ] );
      ( "helpers",
        [
          case "weights" test_weights;
          case "weights of empty allocation" test_weights_zero_alloc;
          case "max oversubscription" test_max_oversubscription;
          case "flow (p,q)" test_flow_pq;
          case "tau" test_tau;
        ] );
      ( "overhead-claims",
        [
          case "control FFC rows are O(kc n)" test_control_constraint_growth;
          case "data FFC rows are O(tau |T|)" test_data_constraint_growth;
        ] );
      ( "approximations",
        [ case "section 6 ingress skip: two Eqn 5 misses pinned" test_skip_rule_misses_pinned ] );
      ("instrumentation", [ case "timing is positive wall-clock" test_stats_wall_clock ]);
      ( "warm-start",
        [
          case "basis carries across a skip-rule change" test_ffc_warm_across_skip_change;
          case "pinned pivot counts along a warm chain" test_ffc_warm_chain_pinned;
          case "computational form pinned along a warm chain" test_form_digests_pinned;
        ] );
      ( "allocation",
        [
          case "to_problem allocates less than a word per column" test_to_problem_allocation;
          case "warm controller steps within their minor-word bounds" test_step_allocation;
        ] );
      ("simplex", [ case "Bland mode terminates on a degenerate MLU" test_bland_terminates ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_data_ffc_robust;
          QCheck_alcotest.to_alcotest prop_data_ffc_switch_robust;
          QCheck_alcotest.to_alcotest prop_control_ffc_robust;
          QCheck_alcotest.to_alcotest prop_ffc_below_basic;
          QCheck_alcotest.to_alcotest prop_encodings_equal;
          QCheck_alcotest.to_alcotest prop_control_matches_oracle;
          QCheck_alcotest.to_alcotest prop_data_matches_oracle_disjoint;
          QCheck_alcotest.to_alcotest prop_data_never_beats_oracle;
          QCheck_alcotest.to_alcotest prop_cross_protection;
        ] );
    ]
