(* Tests for the resilient controller layer: the degradation ladder, LP
   solve deadlines, the sampled guarantee auditor, the warm-basis cache
   policy, fault deduplication and calibration failure reporting. *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng

let small_scenario () = Sim.Scenario.lnet_sim ~sites:6 (Rng.create 21)

let small_input () = (small_scenario ()).Sim.Scenario.input

let prot ?(kc = 0) ?(ke = 0) ?(kv = 0) () = Te_types.protection ~kc ~ke ~kv ()

(* Exact verification needs the paper shortcuts off. *)
let ladder_config protection _prio =
  Ffc.config ~protection ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ()

let controller ?deadline_ms ?max_iterations ?(audit_budget = 8) protection =
  Controller.create
    (Controller.config ?deadline_ms ?max_iterations ~audit_budget ~audit_seed:99
       (Controller.Ffc_ladder (ladder_config protection)))

let basic_prev input =
  match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.fail e

(* Verify an accepted step's allocation at the protection its accepted
   (last) attempt guarantees (which may be degraded), not the requested
   one. Basic TE and last-good attempts carry no protection. *)
let verify_effective input ~prev (step : Controller.step) =
  let accepted = List.nth step.Controller.attempts (List.length step.Controller.attempts - 1) in
  match List.assoc_opt 0 accepted.Controller.protections with
  | None -> ()
  | Some { Te_types.kc; ke; kv } ->
    if ke > 0 || kv > 0 then begin
      match Enumerate.verify_data_plane input step.Controller.alloc ~ke ~kv with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("data-plane at effective protection: " ^ e)
    end;
    if kc > 0 then begin
      match
        Enumerate.verify_control_plane input ~old_alloc:prev
          ~new_alloc:step.Controller.alloc ~kc
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("control-plane at effective protection: " ^ e)
    end

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_degrade_order () =
  let p = prot ~kc:2 ~ke:2 ~kv:1 () in
  let steps =
    [ (2, 1, 1); (2, 0, 1); (2, 0, 0); (1, 0, 0); (0, 0, 0); (0, 0, 0) ]
  in
  ignore
    (List.fold_left
       (fun (p, i) expect ->
         let p' = Controller.degrade_once p in
         Alcotest.(check (triple int int int))
           (Printf.sprintf "degrade step %d" i)
           expect
           (p'.Te_types.kc, p'.Te_types.ke, p'.Te_types.kv);
         (p', i + 1))
       (p, 0) steps)

let test_ladder_full_protection () =
  let input = small_input () in
  let prev = basic_prev input in
  let t = controller (prot ~kc:1 ~ke:1 ()) in
  let step = Controller.step t input ~prev in
  Alcotest.(check int) "rung 0" 0 step.Controller.rung;
  Alcotest.(check string) "label" "full" step.Controller.label;
  Alcotest.(check int) "no fallbacks" 0 step.Controller.fallbacks;
  Alcotest.(check bool) "not stale" false step.Controller.stale;
  Alcotest.(check (pair int int)) "edge (1,0)" (1, 0) (Controller.step_edge step);
  verify_effective input ~prev step;
  (match step.Controller.audit with
  | None -> Alcotest.fail "audit expected"
  | Some a ->
    Alcotest.(check int) "no audit violations" 0 a.Controller.audit_violations;
    Alcotest.(check bool) "audited cases" true (a.Controller.audit_cases > 0))

let test_ladder_collapses_to_last_good () =
  let input = small_input () in
  let prev = basic_prev input in
  (* Pivot budget 0: every LP rung dies on Iteration_limit instantly. *)
  let t = controller ~max_iterations:0 (prot ~kc:1 ~ke:1 ()) in
  let step = Controller.step t input ~prev in
  Alcotest.(check string) "last-good" "last-good" step.Controller.label;
  Alcotest.(check bool) "stale flagged" true step.Controller.stale;
  Alcotest.(check (pair int int)) "no protection edge" (0, 0) (Controller.step_edge step);
  Alcotest.(check int) "fallbacks = attempts - 1"
    (List.length step.Controller.attempts - 1)
    step.Controller.fallbacks;
  List.iteri
    (fun i (a : Controller.attempt) ->
      if i < List.length step.Controller.attempts - 1 then
        match a.Controller.outcome with
        | Error f ->
          Alcotest.(check string) "iteration-limit failure" "iteration-limit"
            (Te_types.failure_kind_label f.Te_types.kind)
        | Ok () -> Alcotest.fail "only the last attempt may succeed")
    step.Controller.attempts;
  (* The last-good allocation never exceeds prev or current demand, so it
     cannot load any link beyond what prev did. *)
  Array.iteri
    (fun f b ->
      Alcotest.(check bool) "bf <= prev" true (b <= prev.Te_types.bf.(f) +. 1e-9);
      Alcotest.(check bool) "bf <= demand" true (b <= input.Te_types.demands.(f) +. 1e-9))
    step.Controller.alloc.Te_types.bf

let test_ladder_degrades_rung_by_rung () =
  let input = small_input () in
  let prev = basic_prev input in
  let protection = prot ~kc:1 ~ke:1 () in
  (* Measure the pivots the full-protection solve needs, then cap just
     below: the full rung must fail and a strictly lower rung be accepted. *)
  let t0 = controller protection in
  let step0 = Controller.step t0 input ~prev in
  let iters =
    match step0.Controller.per_class_stats with
    | [ (_, st) ] -> (
      match st.Ffc.solver with
      | Some s -> s.Ffc_lp.Problem.phase1_iterations + s.Ffc_lp.Problem.phase2_iterations
      | None -> Alcotest.fail "solver stats expected")
    | _ -> Alcotest.fail "one priority class expected"
  in
  Alcotest.(check bool) "full solve takes pivots" true (iters > 1);
  let t = controller ~max_iterations:(iters - 1) protection in
  let step = Controller.step t input ~prev in
  Alcotest.(check bool) "degraded below full" true (step.Controller.rung > 0);
  Alcotest.(check bool) "fallbacks recorded" true (step.Controller.fallbacks >= 1);
  (* Attempts walk the ladder strictly downward, one rung at a time. *)
  List.iteri
    (fun i (a : Controller.attempt) -> Alcotest.(check int) "rung order" i a.Controller.rung)
    step.Controller.attempts;
  verify_effective input ~prev step

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_exceeded_tiny () =
  let input = small_input () in
  (match Basic_te.solve_checked ~deadline_ms:0. input with
  | Error f ->
    Alcotest.(check string) "basic TE deadline" "deadline"
      (Te_types.failure_kind_label f.Te_types.kind)
  | Ok _ -> Alcotest.fail "expected deadline failure");
  (* The budget covers the model build: a sub-build-time budget fails too. *)
  let prev = basic_prev input in
  match
    Ffc.solve_checked
      ~config:(ladder_config (prot ~kc:1 ~ke:1 ()) 0)
      ~prev ~deadline_ms:0.0001 input
  with
  | Error f ->
    Alcotest.(check string) "FFC deadline" "deadline"
      (Te_types.failure_kind_label f.Te_types.kind)
  | Ok _ -> Alcotest.fail "expected deadline failure"

(* Every TE linear program fails through one path: basic TE and FFC on the
   same input report the same kind and, past their labels, the same
   message. *)
let test_failures_one_shape () =
  let input = small_input () in
  let strip label (f : Te_types.solve_failure) =
    let prefix = label ^ ": " and m = f.Te_types.message in
    let n = String.length prefix in
    if String.starts_with ~prefix m then String.sub m n (String.length m - n)
    else Alcotest.failf "%S does not start with %S" m prefix
  in
  let both ?max_iterations ?deadline_ms kind =
    match
      ( Basic_te.solve_checked ?max_iterations ?deadline_ms input,
        Ffc.solve_checked ?max_iterations ?deadline_ms input )
    with
    | Error b, Error f ->
      Alcotest.(check string) "basic TE kind" kind (Te_types.failure_kind_label b.Te_types.kind);
      Alcotest.(check string) "FFC kind" kind (Te_types.failure_kind_label f.Te_types.kind);
      Alcotest.(check string) "same message past the label" (strip "basic TE" b)
        (strip "FFC TE" f)
    | _ -> Alcotest.fail "expected both solves to fail"
  in
  both ~max_iterations:0 "iteration-limit";
  both ~deadline_ms:0. "deadline"

let test_deadline_generous_matches_oracle () =
  let input = small_input () in
  let revised =
    match Basic_te.solve_checked ~deadline_ms:1e7 input with
    | Ok (a, _) -> Te_types.throughput a
    | Error f -> Alcotest.fail f.Te_types.message
  in
  (* Basic TE is FFC with no protection, solved by the reference
     solver. *)
  let oracle =
    let module Dense_tableau = Ffc_check.Dense_tableau in
    let vars = Ffc.build input in
    let model = vars.Formulation.model in
    Ffc_lp.Model.maximize model (Formulation.total_rate_expr vars);
    let r = Dense_tableau.solve model in
    if r.Dense_tableau.status <> Ffc_lp.Problem.Optimal then
      Alcotest.fail "dense tableau: not optimal";
    Te_types.throughput
      (Formulation.alloc_of_solution vars input (fun v -> r.Dense_tableau.x.(v)))
  in
  Alcotest.(check (float 1e-6)) "generous deadline reaches the optimum" oracle revised

(* ------------------------------------------------------------------ *)
(* Sampled guarantee auditor                                           *)
(* ------------------------------------------------------------------ *)

let test_auditor_accepts_valid_flags_corrupt () =
  let input = small_input () in
  let prev = basic_prev input in
  let protection = prot ~kc:1 ~ke:1 () in
  let alloc =
    match Ffc.solve ~config:(ladder_config protection 0) ~prev input with
    | Ok r -> r.Ffc.alloc
    | Error e -> Alcotest.fail e
  in
  let audit alloc =
    Controller.audit_class (Rng.create 5) ~budget:16 input ~prev ~alloc protection
  in
  let clean = audit alloc in
  Alcotest.(check int) "valid allocation passes" 0 clean.Controller.audit_violations;
  Alcotest.(check bool) "cases sampled" true (clean.Controller.audit_cases > 1);
  (* Corrupt the allocation: an oversubscribing scale-up must be flagged
     already by the (always audited) no-fault case. *)
  let corrupt =
    {
      Te_types.bf = Array.map (fun b -> 10. *. b) alloc.Te_types.bf;
      af = Array.map (Array.map (fun a -> 10. *. a)) alloc.Te_types.af;
    }
  in
  let bad = audit corrupt in
  Alcotest.(check bool) "corrupt allocation flagged" true
    (bad.Controller.audit_violations > 0);
  match bad.Controller.first_violation with
  | Some _ -> ()
  | None -> Alcotest.fail "violation message expected"

(* ------------------------------------------------------------------ *)
(* Fault dedup                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_dedup () =
  let topo = Topo_gen.fig2 () in
  let fault t kind = { Sim.Fault_model.time_s = t; kind } in
  let link ids = Sim.Fault_model.Link_down ids in
  let switch v = Sim.Fault_model.Switch_down v in
  let endpoints_of ids =
    List.concat_map
      (fun id ->
        match
          Array.to_list (Topology.links topo)
          |> List.find_opt (fun (l : Topology.link) -> l.Topology.id = id)
        with
        | Some l -> [ l.Topology.src; l.Topology.dst ]
        | None -> [])
      ids
  in
  match Topology.fibres topo with
  | f1 :: rest ->
    let v = List.hd (endpoints_of f1) in
    let untouched =
      match List.find_opt (fun f -> not (List.mem v (endpoints_of f))) rest with
      | Some f -> f
      | None -> Alcotest.fail "fig2 should have a fibre avoiding any given switch"
    in
    let faults =
      [
        fault 0.5 (link f1) (* before the switch failure: kept *);
        fault 1.0 (switch v);
        fault 2.0 (link f1) (* both endpoints now moot: dropped *);
        fault 3.0 (link untouched) (* unrelated fibre: kept *);
      ]
    in
    let out = Sim.Fault_model.dedup topo faults in
    Alcotest.(check int) "redundant link fault dropped" 3 (List.length out);
    Alcotest.(check bool) "the dropped one is the post-switch repeat" true
      (not
         (List.exists
            (fun (f : Sim.Fault_model.fault) ->
              f.Sim.Fault_model.time_s = 2.0)
            out))
  | [] -> Alcotest.fail "fig2 has fibres"

(* ------------------------------------------------------------------ *)
(* Calibration failure reporting                                       *)
(* ------------------------------------------------------------------ *)

let test_calibrate_reports_failure () =
  let input = small_input () in
  let scale, achieved = Sim.Scenario.calibrate input in
  Alcotest.(check bool) "calibration succeeds on a sane scenario" true (achieved >= 0.99);
  Alcotest.(check bool) "scale positive" true (scale > 0.);
  (* Demands far beyond capacity: even the minimum scale cannot reach the
     target, and the ratio reported exposes that instead of a silent 0.05. *)
  let hopeless =
    { input with Te_types.demands = Array.map (fun d -> 1e5 *. d) input.Te_types.demands }
  in
  let scale', achieved' = Sim.Scenario.calibrate hopeless in
  Alcotest.(check (float 1e-12)) "floor scale returned" 0.05 scale';
  Alcotest.(check bool) "failure visible in achieved ratio" true (achieved' < 0.99)

(* ------------------------------------------------------------------ *)
(* Warm-basis cache                                                    *)
(* ------------------------------------------------------------------ *)

(* Each class's solver record of an accepted FFC step. *)
let class_solvers (s : Controller.step) =
  List.map
    (fun (cls, (st : Ffc.stats)) ->
      match st.Ffc.solver with
      | Some ss -> (cls, ss)
      | None -> Alcotest.failf "class %d has no solver record" cls)
    s.Controller.per_class_stats

(* A normal step warm-starts from the previous normal optimum; an escalated
   step neither reads the cache nor refreshes it, so the normal step after
   it solves exactly as it would have without the escalation. *)
let test_basis_cache_policy () =
  let input = small_input () in
  let prev = basic_prev input in
  let protection = prot ~kc:1 ~ke:1 () in
  let c = controller protection and control = controller protection in
  let s1 = Controller.step c input ~prev in
  let s2 = Controller.step c input ~prev:s1.Controller.alloc in
  Alcotest.(check string) "second step on the full rung" "full" s2.Controller.label;
  let warm_flags s =
    List.map (fun (_, ss) -> ss.Ffc_lp.Problem.warm_started) (class_solvers s)
  in
  Alcotest.(check bool) "second step reports classes" true (warm_flags s2 <> []);
  Alcotest.(check bool) "second step warm in every class" true
    (List.for_all Fun.id (warm_flags s2));
  let esc = Controller.step c ~stale:2 input ~prev:s2.Controller.alloc in
  Alcotest.(check bool) "stale 2 > kc 1 escalates" true esc.Controller.escalated;
  (* On rung 0 a wrongful commit would overwrite the cache the next normal
     step reads. *)
  Alcotest.(check string) "escalated step on the full rung" "full" esc.Controller.label;
  Alcotest.(check bool) "escalated step reports classes" true (warm_flags esc <> []);
  Alcotest.(check bool) "escalated step cold in every class" true
    (List.for_all not (warm_flags esc));
  let next = Controller.step c input ~prev:esc.Controller.alloc in
  let c1 = Controller.step control input ~prev in
  let c2 = Controller.step control input ~prev:c1.Controller.alloc in
  Alcotest.(check bool) "control matches the normal steps" true
    (c2.Controller.alloc = s2.Controller.alloc);
  let expected = Controller.step control input ~prev:esc.Controller.alloc in
  Alcotest.(check bool) "same allocation as without the escalation" true
    (next.Controller.alloc = expected.Controller.alloc);
  let pivots s =
    List.map
      (fun (cls, ss) ->
        (cls, (ss.Ffc_lp.Problem.phase1_iterations, ss.Ffc_lp.Problem.phase2_iterations)))
      (class_solvers s)
  in
  Alcotest.(check (list (pair int (pair int int))))
    "same pivots as without the escalation" (pivots expected) (pivots next)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "resilience"
    [
      ( "ladder",
        [
          case "degrade order" test_degrade_order;
          case "full protection on rung 0" test_ladder_full_protection;
          case "collapses to last-good" test_ladder_collapses_to_last_good;
          case "degrades rung by rung" test_ladder_degrades_rung_by_rung;
        ] );
      ( "deadline",
        [
          case "tiny budget fails fast" test_deadline_exceeded_tiny;
          case "basic TE and FFC fail alike" test_failures_one_shape;
          case "generous budget reaches oracle optimum" test_deadline_generous_matches_oracle;
        ] );
      ( "auditor", [ case "valid passes, corrupt flagged" test_auditor_accepts_valid_flags_corrupt ] );
      ( "warm basis", [ case "escalations neither read nor write it" test_basis_cache_policy ] );
      ( "faults", [ case "switch-down dedupes link faults" test_fault_dedup ] );
      ( "calibration", [ case "failure reported" test_calibrate_reports_failure ] );
    ]
