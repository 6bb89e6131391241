(* Tests for the stateful southbound update engine: per-switch epochs,
   retry/timeout/backoff against persistent outages, mixed-epoch load
   accounting, the live kc-guarantee checker, controller escalation, and
   determinism of the full interval loop with the engine in it. *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng

let check_float = Alcotest.(check (float 1e-9))

(* A control plane that always succeeds instantly — failures in these tests
   come only from forced outages, so every timeline is deterministic. *)
let instant_model =
  {
    Sim.Update_model.name = "instant";
    rpc_s = (fun _ -> 0.);
    per_rule_s = (fun _ -> 0.);
    switch_factor = (fun _ -> 1.);
    rules_per_update = 1;
    config_fail_prob = 0.;
    outage_prob = 0.;
    outage_duration_s = (fun _ -> 0.);
  }

(* Every attempt completes, but slower than [rpc_s] per RPC. *)
let slow_model rpc_s = { instant_model with Sim.Update_model.rpc_s = (fun _ -> rpc_s) }

(* Deterministic retry timeline: fixed 60 s backoff, no jitter. *)
let fixed_retry =
  Sim.Southbound.retry_policy ~max_attempts:6 ~attempt_timeout_s:10. ~backoff_base_s:60.
    ~backoff_mult:1. ~backoff_max_s:60. ~jitter:0. ()

(* Three switches, two ingresses: flow 0 (src 0) has a direct tunnel on a
   10-capacity link and a detour via 20-capacity links; flow 1 (src 1) rides
   the second detour hop. *)
let mixed_input () =
  let topo = Topology.create 3 in
  let a = Topology.add_link topo 0 2 10. in
  let b = Topology.add_link topo 0 1 20. in
  let c = Topology.add_link topo 1 2 20. in
  let f0 =
    Flow.create ~id:0 ~src:0 ~dst:2 [ Tunnel.create ~id:0 [ a ]; Tunnel.create ~id:1 [ b; c ] ]
  in
  let f1 = Flow.create ~id:1 ~src:1 ~dst:2 [ Tunnel.create ~id:2 [ c ] ] in
  { Te_types.topo; flows = [ f0; f1 ]; demands = [| 12.; 2. |] }

(* Old config: flow 0 all on the direct link, flow 1 at 5. *)
let old_alloc = { Te_types.bf = [| 8.; 5. |]; af = [| [| 8.; 0. |]; [| 5. |] |] }

(* New targets move flow 0 to the detour; a stale switch 0 therefore keeps
   splitting the new rate onto the 10-capacity direct link. *)
let safe_target = { Te_types.bf = [| 10.; 2. |]; af = [| [| 0.; 10. |]; [| 2. |] |] }
let hot_target = { Te_types.bf = [| 12.; 2. |]; af = [| [| 0.; 12. |]; [| 2. |] |] }

(* ------------------------------------------------------------------ *)
(* Push mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_push_applies_and_rates_skip () =
  let input = mixed_input () in
  let eng = Sim.Southbound.create ~retry:fixed_retry instant_model input in
  let rng = Rng.create 1 in
  let r = Sim.Southbound.push eng rng input ~target:old_alloc ~interval_s:300. in
  Alcotest.(check int) "both switches pushed" 2 r.Sim.Southbound.pushed;
  Alcotest.(check int) "both applied" 2 (List.length r.Sim.Southbound.applied);
  Alcotest.(check (list int)) "none stale" [] r.Sim.Southbound.stale;
  (* A pure rate change keeps the splits: rate limiters live at the hosts,
     so no switch needs a push — yet every switch adopts the new epoch. *)
  let rescaled = { Te_types.bf = [| 4.; 2.5 |]; af = [| [| 4.; 0. |]; [| 2.5 |] |] } in
  let r2 = Sim.Southbound.push eng rng input ~target:rescaled ~interval_s:300. in
  Alcotest.(check int) "no switch pushed" 0 r2.Sim.Southbound.pushed;
  Alcotest.(check (list int)) "none stale" [] r2.Sim.Southbound.stale;
  Alcotest.(check int) "lag 0" 0 (Sim.Southbound.epoch_lag eng 0)

let test_outage_retry_recovers () =
  let input = mixed_input () in
  let eng = Sim.Southbound.create ~retry:fixed_retry instant_model input in
  let rng = Rng.create 2 in
  ignore (Sim.Southbound.push eng rng input ~target:old_alloc ~interval_s:300.);
  (* Engine clock is now 300 s. An outage until t=450 kills the attempts at
     t=300, 360 and 420; the fourth (t=480) lands. *)
  Sim.Southbound.force_outage eng 0 ~until_s:450.;
  let r = Sim.Southbound.push eng rng input ~target:safe_target ~interval_s:300. in
  Alcotest.(check int) "only the weight-changed switch pushed" 1 r.Sim.Southbound.pushed;
  Alcotest.(check int) "three correlated failures" 3 r.Sim.Southbound.failures;
  Alcotest.(check int) "three retries" 3 r.Sim.Southbound.retries;
  Alcotest.(check int) "one retry success" 1 r.Sim.Southbound.retry_successes;
  Alcotest.(check (list int)) "nobody stale" [] r.Sim.Southbound.stale;
  (match r.Sim.Southbound.applied with
  | [ e ] ->
    Alcotest.(check int) "switch 0" 0 e.Sim.Southbound.switch;
    check_float "applied when the outage cleared" 180. e.Sim.Southbound.at_s;
    Alcotest.(check int) "fourth attempt" 4 e.Sim.Southbound.attempts
  | l -> Alcotest.failf "expected one apply event, got %d" (List.length l));
  check_float "clock advanced" 600. (Sim.Southbound.now_s eng)

let test_outage_outlasting_interval_leaves_stale () =
  let input = mixed_input () in
  let eng = Sim.Southbound.create ~retry:fixed_retry instant_model input in
  let rng = Rng.create 3 in
  ignore (Sim.Southbound.push eng rng input ~target:old_alloc ~interval_s:300.);
  Sim.Southbound.force_outage eng 0 ~until_s:1e9;
  let r = Sim.Southbound.push eng rng input ~target:safe_target ~interval_s:300. in
  Alcotest.(check (list int)) "switch 0 stale" [ 0 ] r.Sim.Southbound.stale;
  Alcotest.(check int) "lag 1" 1 (Sim.Southbound.epoch_lag eng 0);
  (* Its installed allocation is untouched. *)
  check_float "still running the old rate" 8.
    (Sim.Southbound.running eng 0).Te_types.bf.(0);
  (* A second failed epoch accumulates lag. *)
  let r2 = Sim.Southbound.push eng rng input ~target:hot_target ~interval_s:300. in
  Alcotest.(check int) "lag 2 across epochs" 2 r2.Sim.Southbound.max_epoch_lag;
  Alcotest.(check int) "lag 2" 2 (Sim.Southbound.epoch_lag eng 0)

let test_stragglers_time_out () =
  let input = mixed_input () in
  (* Every attempt completes in 20 s against a 10 s timeout: abandoned,
     retried, abandoned again — both pushes end stale. *)
  let retry =
    Sim.Southbound.retry_policy ~max_attempts:2 ~attempt_timeout_s:10. ~backoff_base_s:1.
      ~backoff_mult:1. ~backoff_max_s:1. ~jitter:0. ()
  in
  let eng = Sim.Southbound.create ~retry (slow_model 20.) input in
  let r = Sim.Southbound.push eng (Rng.create 4) input ~target:old_alloc ~interval_s:300. in
  Alcotest.(check int) "both timed out twice" 4 r.Sim.Southbound.timeouts;
  Alcotest.(check (list int)) "both stale" [ 0; 1 ] r.Sim.Southbound.stale;
  Alcotest.(check int) "nothing applied" 0 (List.length r.Sim.Southbound.applied)

(* Ingresses 3, 0 and 1 are listed out of id order; switches 2 and 4
   source no flow. Held stale, the middle ingress and the last one are
   reported in ascending order. *)
let test_ingress_slots () =
  let topo = Topology.create 5 in
  let flow id src =
    Flow.create ~id ~src ~dst:4 [ Tunnel.create ~id [ Topology.add_link topo src 4 10. ] ]
  in
  let input =
    { Te_types.topo; flows = [ flow 0 3; flow 1 0; flow 2 1 ]; demands = [| 1.; 1.; 1. |] }
  in
  let eng = Sim.Southbound.create ~retry:fixed_retry instant_model input in
  Sim.Southbound.force_outage eng 1 ~until_s:1e9;
  Sim.Southbound.force_outage eng 3 ~until_s:1e9;
  let target = { Te_types.bf = [| 1.; 1.; 1. |]; af = [| [| 1. |]; [| 1. |]; [| 1. |] |] } in
  let r = Sim.Southbound.push eng (Rng.create 5) input ~target ~interval_s:300. in
  Alcotest.(check (list int)) "report.stale ascending" [ 1; 3 ] r.Sim.Southbound.stale;
  Alcotest.(check (list int)) "stale_switches ascending" [ 1; 3 ]
    (Sim.Southbound.stale_switches eng);
  Alcotest.(check (list int)) "only switch 0 applied" [ 0 ]
    (List.map (fun e -> e.Sim.Southbound.switch) r.Sim.Southbound.applied);
  let expect_invalid what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun v ->
      expect_invalid (Printf.sprintf "running %d" v) (fun () ->
          ignore (Sim.Southbound.running eng v));
      expect_invalid (Printf.sprintf "epoch_lag %d" v) (fun () ->
          ignore (Sim.Southbound.epoch_lag eng v));
      expect_invalid (Printf.sprintf "force_outage %d" v) (fun () ->
          Sim.Southbound.force_outage eng v ~until_s:0.))
    [ 2; 4; 5; -1 ]

let test_completion_past_interval_edge_is_stale () =
  let input = mixed_input () in
  (* 20 s completion fits the 30 s timeout but not the 10 s interval: the
     interval ran entirely on the old configuration, so the switch must be
     reported stale for it. *)
  let retry =
    Sim.Southbound.retry_policy ~max_attempts:1 ~attempt_timeout_s:30. ~jitter:0. ()
  in
  let eng = Sim.Southbound.create ~retry (slow_model 20.) input in
  let r = Sim.Southbound.push eng (Rng.create 5) input ~target:old_alloc ~interval_s:10. in
  Alcotest.(check int) "counted as timeouts" 2 r.Sim.Southbound.timeouts;
  Alcotest.(check (list int)) "both stale" [ 0; 1 ] r.Sim.Southbound.stale

(* The one retry timeline: attempts start where the previous one's
   failure detection (immediate) or timeout plus the backoff left off. *)
let test_retry_timeline_schedule () =
  let p =
    Sim.Southbound.retry_policy ~max_attempts:5 ~attempt_timeout_s:10. ~backoff_base_s:1.
      ~backoff_mult:2. ~backoff_max_s:4. ~jitter:0. ()
  in
  let outcomes =
    ref Sim.Update_model.[ Failed; Failed; Completed 20.; Failed; Completed 3. ]
  in
  let starts = ref [] in
  let attempt ~at_s =
    starts := at_s :: !starts;
    match !outcomes with
    | o :: rest ->
      outcomes := rest;
      o
    | [] -> Alcotest.fail "attempted past max_attempts"
  in
  let tl = Sim.Southbound.retry_timeline p (Rng.create 1) ~interval_s:300. attempt in
  (* Backoffs 1, 2, 4 (capped), 4: failures at 0 and 1, a straggler at 3
     abandoned at 13, a failure at 17, the landing attempt at 21. *)
  Alcotest.(check (list (float 1e-9))) "attempt starts" [ 0.; 1.; 3.; 17.; 21. ]
    (List.rev !starts);
  Alcotest.(check (option (float 1e-9))) "landed" (Some 24.) tl.Sim.Southbound.landed_at;
  Alcotest.(check int) "tries" 5 tl.Sim.Southbound.tries;
  Alcotest.(check int) "failed" 3 tl.Sim.Southbound.failed;
  Alcotest.(check int) "timed out" 1 tl.Sim.Southbound.timed_out;
  (* The same attempt landing past a 22 s interval edge has not landed. *)
  outcomes := Sim.Update_model.[ Failed; Failed; Completed 20.; Failed; Completed 3. ];
  let tl = Sim.Southbound.retry_timeline p (Rng.create 1) ~interval_s:22. attempt in
  Alcotest.(check (option (float 1e-9))) "past the edge" None tl.Sim.Southbound.landed_at;
  Alcotest.(check int) "counted as a timeout" 2 tl.Sim.Southbound.timed_out

(* ------------------------------------------------------------------ *)
(* Mixed-epoch load accounting                                         *)
(* ------------------------------------------------------------------ *)

(* Drive the engine into a mixed state: switch 0 stale on [old_alloc],
   switch 1 current on [target]. *)
let mixed_engine target =
  let input = mixed_input () in
  let eng = Sim.Southbound.create ~retry:fixed_retry instant_model input in
  let rng = Rng.create 6 in
  ignore (Sim.Southbound.push eng rng input ~target:old_alloc ~interval_s:300.);
  Sim.Southbound.force_outage eng 0 ~until_s:1e9;
  let r = Sim.Southbound.push eng rng input ~target ~interval_s:300. in
  Alcotest.(check (list int)) "switch 0 stale" [ 0 ] r.Sim.Southbound.stale;
  (input, eng)

let test_imposed_mix_loads () =
  let input, eng = mixed_engine safe_target in
  (* Hosts enforce the new rates; switch 0 still splits flow 0 by its old
     weights [1; 0], switch 1 runs the target. *)
  let mix = Sim.Southbound.imposed_mix eng input ~rates:safe_target.Te_types.bf in
  let loads = Te_types.link_loads input mix in
  check_float "direct link carries the new rate on old splits" 10. loads.(0);
  check_float "detour first hop idle" 0. loads.(1);
  check_float "second hop carries flow 1 only" 2. loads.(2);
  (* The same mixture through the per-ingress accounting used by the
     checker and the update planner. *)
  let per_link = Formulation.crossings_by_link input in
  let by_ingress = Update_plan.ingress_loads per_link mix in
  Array.iteri
    (fun lid expected ->
      let total = List.fold_left (fun acc (_, x) -> acc +. x) 0. by_ingress.(lid) in
      check_float "ingress_loads agrees with link_loads" expected total)
    loads

let test_imposed_mix_preserves_weights_at_zero_rate () =
  let input, eng = mixed_engine safe_target in
  (* A flow granted zero rate keeps its installed splits visible: the
     controller's control-plane constraints must still protect against
     them when a later target re-grants the flow. *)
  let mix = Sim.Southbound.imposed_mix eng input ~rates:[| 0.; 2. |] in
  check_float "zero enforced rate" 0. mix.Te_types.bf.(0);
  Alcotest.(check (array (float 1e-9)))
    "installed weights survive" [| 1.; 0. |] (Te_types.weights mix 0);
  (* ... while the epsilon carrier load is far below every tolerance. *)
  Alcotest.(check bool) "carrier load negligible" true
    ((Te_types.link_loads input mix).(0) < 1e-8)

let test_running_rows_are_raw_config () =
  let _, eng = mixed_engine safe_target in
  let stale = Sim.Southbound.running eng 0 and current = Sim.Southbound.running eng 1 in
  check_float "flow 0 row from the stale epoch" 8. stale.Te_types.bf.(0);
  check_float "flow 0 split from the stale epoch" 8. stale.Te_types.af.(0).(0);
  check_float "flow 1 row from the current epoch" 2. current.Te_types.bf.(1)

let test_hold_reports_standing_state () =
  let _, eng = mixed_engine safe_target in
  let r = Sim.Southbound.hold eng ~interval_s:300. in
  Alcotest.(check int) "same epoch" 2 r.Sim.Southbound.epoch;
  Alcotest.(check int) "nothing pushed" 0 r.Sim.Southbound.pushed;
  Alcotest.(check int) "no attempts" 0 r.Sim.Southbound.attempts;
  Alcotest.(check (list int)) "switch 0 still stale" [ 0 ] r.Sim.Southbound.stale;
  Alcotest.(check int) "lag 1" 1 r.Sim.Southbound.max_epoch_lag;
  check_float "clock advanced" 900. (Sim.Southbound.now_s eng)

(* ------------------------------------------------------------------ *)
(* kc-guarantee checker                                                *)
(* ------------------------------------------------------------------ *)

let test_checker_within_budget_ok () =
  let input, eng = mixed_engine safe_target in
  (* Stale switch 0 imposes 10 Gbps on the 10-capacity direct link:
     exactly at capacity, guarantee holds. *)
  match Sim.Southbound.check_guarantee eng input ~target:safe_target ~kc:1 with
  | Sim.Southbound.Ok_checked -> ()
  | v -> Alcotest.failf "expected ok, got %a" Sim.Southbound.pp_verdict v

let test_checker_flags_violation () =
  let input, eng = mixed_engine hot_target in
  (* The hot target grants flow 0 12 Gbps; stale switch 0 splits it onto
     the 10-capacity direct link — a genuine Eqn 5 violation at kc=1. *)
  match Sim.Southbound.check_guarantee eng input ~target:hot_target ~kc:1 with
  | Sim.Southbound.Violation v ->
    Alcotest.(check int) "offending link" 0 v.Sim.Southbound.link.Topology.id;
    check_float "overload" 12. v.Sim.Southbound.load;
    check_float "capacity" 10. v.Sim.Southbound.capacity;
    Alcotest.(check (list int)) "stale set" [ 0 ] v.Sim.Southbound.stale_set
  | v -> Alcotest.failf "expected violation, got %a" Sim.Southbound.pp_verdict v

let test_checker_beyond_budget () =
  let input, eng = mixed_engine hot_target in
  (* One stale switch against kc=0: the guarantee makes no promise. *)
  match Sim.Southbound.check_guarantee eng input ~target:hot_target ~kc:0 with
  | Sim.Southbound.Beyond_budget [ 0 ] -> ()
  | v -> Alcotest.failf "expected beyond-budget, got %a" Sim.Southbound.pp_verdict v

let test_checker_grandfathered_links_skipped () =
  let input, eng = mixed_engine hot_target in
  (* A link already overloaded before the target was computed is granted
     unprotected moves (§4.5): the checker must not charge it. *)
  match
    Sim.Southbound.check_guarantee eng input ~target:hot_target ~kc:1
      ~grandfathered:(fun lid -> lid = 0)
  with
  | Sim.Southbound.Ok_checked -> ()
  | v -> Alcotest.failf "expected ok, got %a" Sim.Southbound.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Controller escalation                                               *)
(* ------------------------------------------------------------------ *)

let escalation_input () =
  (Sim.Scenario.lnet_sim ~sites:8 ~nflows:8 (Rng.create 30)).Sim.Scenario.input

let escalation_controller () =
  Controller.create
    (Controller.config
       (Controller.Ffc_ladder
          (fun _ ->
            Ffc.config ~protection:(Te_types.protection ~kc:1 ()) ~mice_fraction:0. ())))

let test_no_escalation_within_budget () =
  let input = escalation_input () in
  let ctrl = escalation_controller () in
  let prev = Te_types.zero_allocation input in
  let s = Controller.step ctrl ~stale:1 input ~prev in
  Alcotest.(check bool) "stale <= kc does not escalate" false s.Controller.escalated;
  Alcotest.(check int) "kc as configured" 1 (Controller.step_kc s)

let test_escalation_raises_kc () =
  let input = escalation_input () in
  let ctrl = escalation_controller () in
  let prev = Te_types.zero_allocation input in
  let s = Controller.step ctrl ~stale:3 input ~prev in
  Alcotest.(check bool) "escalated" true s.Controller.escalated;
  Alcotest.(check bool) "kc raised above configured" true (Controller.step_kc s > 1);
  (* The escalated solve must still carry a real protection guarantee. *)
  let accepted = List.nth s.Controller.attempts (List.length s.Controller.attempts - 1) in
  Alcotest.(check bool) "protected rung" true (accepted.Controller.protections <> [])

(* ------------------------------------------------------------------ *)
(* Update_sim censoring                                                *)
(* ------------------------------------------------------------------ *)

let test_censoring_helpers () =
  let cs = [ Sim.Update_sim.Completed 10.; Stalled; Completed 20. ] in
  Alcotest.(check (list (float 1e-9)))
    "completed only" [ 10.; 20. ]
    (Sim.Update_sim.completed_times cs);
  Alcotest.(check (list (float 1e-9)))
    "stalled censored to the cap" [ 10.; 300.; 20. ]
    (Sim.Update_sim.censored_times ~max_time_s:300. cs);
  check_float "stalled fraction" (1. /. 3.) (Sim.Update_sim.stalled_fraction cs);
  check_float "empty list" 0. (Sim.Update_sim.stalled_fraction [])

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

let test_interval_loop_deterministic () =
  let sc = Sim.Scenario.lnet_sim ~sites:8 ~nflows:8 (Rng.create 40) in
  let input = sc.Sim.Scenario.input in
  let run () =
    let series = Sim.Scenario.demand_series (Rng.create 41) sc ~scale:1.2 ~intervals:4 in
    let ffc _ =
      Ffc.config ~protection:(Te_types.protection ~kc:1 ()) ~mice_fraction:0.
        ~ingress_skip_fraction:0. ()
    in
    let cfg =
      Sim.Interval_sim.default_config ~mode:(Sim.Interval_sim.Proactive ffc)
        ~update_model:(Sim.Update_model.realistic ()) Sim.Fault_model.none
    in
    Sim.Interval_sim.run ~rng:(Rng.create 42) cfg input ~demand_series:series
  in
  let a = run () and b = run () in
  let losses = List.map Sim.Interval_sim.total_lost in
  let sb f stats = List.map (fun s -> f s.Sim.Interval_sim.southbound) stats in
  let verdicts =
    List.map (fun s ->
        Format.asprintf "%a@%d%s" Sim.Southbound.pp_verdict s.Sim.Interval_sim.kc_verdict
          s.Sim.Interval_sim.kc_checked
          (if s.Sim.Interval_sim.escalated then "!" else ""))
  in
  Alcotest.(check (list (float 1e-9))) "same losses" (losses a) (losses b);
  Alcotest.(check (list int)) "same attempts"
    (sb (fun r -> r.Sim.Southbound.attempts) a)
    (sb (fun r -> r.Sim.Southbound.attempts) b);
  Alcotest.(check (list int)) "same retries"
    (sb (fun r -> r.Sim.Southbound.retries) a)
    (sb (fun r -> r.Sim.Southbound.retries) b);
  Alcotest.(check (list (list int))) "same stale sets"
    (sb (fun r -> r.Sim.Southbound.stale) a)
    (sb (fun r -> r.Sim.Southbound.stale) b);
  Alcotest.(check (list string)) "same verdicts" (verdicts a) (verdicts b)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "southbound"
    [
      ( "push",
        [
          case "applies; rate-only changes skip the switch" test_push_applies_and_rates_skip;
          case "retries through an outage" test_outage_retry_recovers;
          case "long outage leaves multi-epoch staleness"
            test_outage_outlasting_interval_leaves_stale;
          case "stragglers abandoned at the timeout" test_stragglers_time_out;
          case "retry timeline schedule" test_retry_timeline_schedule;
          case "completion past the edge counts stale"
            test_completion_past_interval_edge_is_stale;
          case "ingress slots: ascending, bounds-checked" test_ingress_slots;
        ] );
      ( "mixing",
        [
          case "imposed mix = rates x installed splits" test_imposed_mix_loads;
          case "zero-rate flows keep installed weights"
            test_imposed_mix_preserves_weights_at_zero_rate;
          case "installed mix is the raw config" test_running_rows_are_raw_config;
          case "hold reports the standing state" test_hold_reports_standing_state;
        ] );
      ( "checker",
        [
          case "within budget, at capacity: ok" test_checker_within_budget_ok;
          case "within budget, over capacity: violation" test_checker_flags_violation;
          case "beyond budget reported as such" test_checker_beyond_budget;
          case "grandfathered links skipped" test_checker_grandfathered_links_skipped;
        ] );
      ( "escalation",
        [
          case "stale within kc: no escalation" test_no_escalation_within_budget;
          case "stale beyond kc raises effective kc" test_escalation_raises_kc;
        ] );
      ( "censoring", [ case "completed/censored/stalled helpers" test_censoring_helpers ] );
      ( "determinism",
        [ case "interval loop reproducible under realistic model" test_interval_loop_deterministic ] );
    ]
