(* Tests for the imperfect-sensing layer: the robust demand estimator
   (EWMA + peak envelope, dead-band predicate), the lossy telemetry channel
   (seeded determinism, neutral-parameter stream discipline, delayed fault
   notifications, keepalive suspicion), and their integration in the
   interval simulator (bit-identity at neutral parameters, dead-band solve
   skipping, conservative ground-truth verdicts under loss). *)

open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng

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

let lnet () = Sim.Scenario.lnet_sim ~sites:4 (Rng.create 42)

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)
(* ------------------------------------------------------------------ *)

let test_passthrough_identity () =
  let est = Estimator.create Estimator.passthrough ~nflows:3 in
  let reports = [| Some 5.0; Some 0.25; Some 7.5 |] in
  Estimator.observe est reports;
  Alcotest.(check (array (float 0.))) "envelope = last report bitwise"
    [| 5.0; 0.25; 7.5 |] (Estimator.envelope est);
  Alcotest.(check (array (float 0.))) "nominal = last report bitwise"
    [| 5.0; 0.25; 7.5 |] (Estimator.nominal est);
  Alcotest.(check int) "fresh view" 0 (Estimator.staleness est)

let test_envelope_monotone_and_staleness () =
  let cfg = Estimator.config ~alpha:0.5 ~peak_decay:1.0 ~headroom:0.1 () in
  let est = Estimator.create cfg ~nflows:1 in
  Estimator.observe est [| Some 10. |];
  Estimator.observe est [| Some 2. |];
  (* peak never decays at decay 1; envelope keeps covering the old high. *)
  Alcotest.(check bool) "envelope >= (1+gamma) * remembered peak" true
    ((Estimator.envelope est).(0) >= 1.1 *. 10. -. 1e-9);
  Estimator.observe est [| None |];
  Estimator.observe est [| None |];
  Alcotest.(check int) "two missed reports age the view" 2 (Estimator.staleness est);
  Alcotest.(check bool) "a missing report never shrinks the view" true
    ((Estimator.envelope est).(0) >= 1.1 *. 10. -. 1e-9);
  Estimator.observe_exact est [| 3. |];
  Alcotest.(check int) "reconciliation zeroes staleness" 0 (Estimator.staleness est);
  Alcotest.(check bool) "reconciliation discards the remembered peak" true
    ((Estimator.envelope est).(0) <= 1.1 *. 3. +. 1e-9)

(* The headline estimator property: over a lossy, noisy channel the
   head-roomed envelope covers ground truth on the vast majority of
   (flow, interval) samples once the EWMA has warmed up. *)
let test_envelope_covers_truth () =
  let nflows = 8 and intervals = 60 in
  let rng = Rng.create 77 in
  let tele = Sim.Telemetry.create (Sim.Telemetry.config ~loss:0.3 ~demand_noise:0.05 ()) in
  let cfg = Estimator.config ~headroom:0.2 () in
  let est = Estimator.create cfg ~nflows in
  let covered = ref 0 and total = ref 0 in
  for t = 0 to intervals - 1 do
    (* Diurnal-ish truth: slow sinusoid per flow, distinct phases. *)
    let truth =
      Array.init nflows (fun f ->
          10.
          *. (1. +. (0.2 *. sin ((float_of_int t /. 10.) +. float_of_int f))))
    in
    Estimator.observe est (Sim.Telemetry.observe_demands tele rng truth);
    if t >= 5 then begin
      let env = Estimator.envelope est in
      Array.iteri
        (fun f d ->
          incr total;
          if env.(f) >= d then incr covered)
        truth
    end
  done;
  let coverage = float_of_int !covered /. float_of_int (max 1 !total) in
  Alcotest.(check bool)
    (Printf.sprintf "envelope covers truth on >= 95%% of samples (got %.1f%%)"
       (100. *. coverage))
    true (coverage >= 0.95)

let test_dead_band_predicate () =
  let cfg = Estimator.config ~dead_band:0.05 () in
  Alcotest.(check bool) "small move is inside the band" true
    (Estimator.within_dead_band cfg ~view:[| 102.; 49. |] ~last:[| 100.; 50. |]);
  Alcotest.(check bool) "one large move breaks the band" false
    (Estimator.within_dead_band cfg ~view:[| 102.; 60. |] ~last:[| 100.; 50. |]);
  Alcotest.(check bool) "disabled band never skips" false
    (Estimator.within_dead_band Estimator.passthrough ~view:[| 100. |] ~last:[| 100. |])

(* ------------------------------------------------------------------ *)
(* Telemetry channel                                                   *)
(* ------------------------------------------------------------------ *)

let test_observe_deterministic () =
  let cfg = Sim.Telemetry.config ~loss:0.4 ~demand_noise:0.1 () in
  let demands = Array.init 32 (fun i -> float_of_int (i + 1)) in
  let obs seed =
    let t = Sim.Telemetry.create cfg in
    Array.to_list (Sim.Telemetry.observe_demands t (Rng.create seed) demands)
  in
  Alcotest.(check (list (option (float 0.)))) "same seed, same reports" (obs 7) (obs 7);
  Alcotest.(check bool) "some reports dropped at loss 0.4" true
    (List.exists (fun r -> r = None) (obs 7));
  Alcotest.(check bool) "some reports delivered at loss 0.4" true
    (List.exists (fun r -> r <> None) (obs 7))

let test_neutral_consumes_no_randomness () =
  (* Every telemetry draw must be conditional on the imperfection being
     configured: a neutral channel leaves the RNG stream untouched. *)
  let sc = lnet () in
  let topo = sc.Sim.Scenario.input.Ffc_core.Te_types.topo in
  let demands = Array.of_list (List.map (fun _ -> 1.) sc.Sim.Scenario.input.Te_types.flows) in
  let rng = Rng.create 5 in
  let t = Sim.Telemetry.create Sim.Telemetry.neutral in
  Sim.Telemetry.begin_interval t rng ~interval:0 topo;
  let reports = Sim.Telemetry.observe_demands t rng demands in
  Sim.Telemetry.note_faults t rng ~interval:0 [];
  Alcotest.(check bool) "neutral channel delivers every report exactly" true
    (Array.for_all2 (fun r d -> r = Some d) reports demands);
  Alcotest.(check (float 0.)) "no RNG draw was consumed"
    (Rng.float (Rng.create 5) 1.)
    (Rng.float rng 1.)

let test_delayed_notification_and_reconcile () =
  let sc = lnet () in
  let topo = sc.Sim.Scenario.input.Te_types.topo in
  let fibre = List.hd (Ffc_net.Topology.fibres topo) in
  let fault = { Sim.Fault_model.time_s = 10.; kind = Sim.Fault_model.Link_down fibre } in
  let t = Sim.Telemetry.create (Sim.Telemetry.config ~delay:2 ()) in
  let rng = Rng.create 3 in
  Sim.Telemetry.note_faults t rng ~interval:0 [ fault ];
  Sim.Telemetry.begin_interval t rng ~interval:1 topo;
  Alcotest.(check (pair int int)) "nothing suspect before the delay elapses" (0, 0)
    (Sim.Telemetry.suspect_counts t);
  Sim.Telemetry.begin_interval t rng ~interval:2 topo;
  Alcotest.(check bool) "late notification lands 2 edges later as suspicion" true
    (fst (Sim.Telemetry.suspect_counts t) >= 1);
  Sim.Telemetry.reconcile t;
  Alcotest.(check (pair int int)) "reconciliation clears suspicion" (0, 0)
    (Sim.Telemetry.suspect_counts t);
  Sim.Telemetry.begin_interval t rng ~interval:3 topo;
  Alcotest.(check (pair int int)) "and drops the queued stale news" (0, 0)
    (Sim.Telemetry.suspect_counts t)

let test_keepalive_suspicion () =
  Alcotest.(check (float 1e-12)) "keepalive miss probability is loss^2" 0.25
    (Sim.Telemetry.keepalive_miss_prob (Sim.Telemetry.config ~loss:0.5 ()));
  let sc = lnet () in
  let topo = sc.Sim.Scenario.input.Te_types.topo in
  let t = Sim.Telemetry.create (Sim.Telemetry.config ~loss:0.5 ()) in
  let rng = Rng.create 11 in
  let charges = ref 0 in
  for i = 0 to 19 do
    Sim.Telemetry.begin_interval t rng ~interval:i topo;
    let f, s = Sim.Telemetry.suspect_counts t in
    charges := !charges + f + s
  done;
  Alcotest.(check bool) "missed keepalives mark elements suspect" true (!charges > 0)

(* ------------------------------------------------------------------ *)
(* Interval-simulator integration                                      *)
(* ------------------------------------------------------------------ *)

let proactive ~kc ~ke =
  Sim.Interval_sim.Proactive
    (fun _ ->
      Ffc.config
        ~protection:(Te_types.protection ~kc ~ke ())
        ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ())

(* Zero wall-clock solve times so two runs compare structurally. *)
let strip (s : Sim.Interval_sim.interval_stats) =
  {
    s with
    Sim.Interval_sim.ladder =
      List.map
        (fun (a : Controller.attempt) -> { a with Controller.solve_ms = 0. })
        s.Sim.Interval_sim.ladder;
  }

let test_neutral_sim_bit_identical () =
  let sc = lnet () in
  let input = sc.Sim.Scenario.input in
  let series = Sim.Scenario.demand_series (Rng.create 8) sc ~scale:1.0 ~intervals:4 in
  let fm = Sim.Fault_model.lnet_like input.Te_types.topo in
  let arm telemetry =
    let cfg =
      Sim.Interval_sim.default_config ~audit_budget:2 ?telemetry ~mode:(proactive ~kc:1 ~ke:1)
        ~update_model:instant_model fm
    in
    List.map strip (Sim.Interval_sim.run ~rng:(Rng.create 9) cfg input ~demand_series:series)
  in
  let perfect = arm None and neutral = arm (Some Sim.Telemetry.neutral) in
  Alcotest.(check bool)
    "neutral telemetry reproduces perfect sensing bit for bit" true (perfect = neutral)

let test_dead_band_skips_resolves () =
  let sc = lnet () in
  let input = sc.Sim.Scenario.input in
  let n = 5 in
  (* Half the calibrated load: every flow is fully granted, so no backlog
     feeds forward and the demand view is genuinely constant. *)
  let series =
    Array.init n (fun _ -> Array.map (fun d -> 0.5 *. d) input.Te_types.demands)
  in
  let estimator =
    Estimator.config ~alpha:1.0 ~peak_decay:0.0 ~headroom:0.0 ~dead_band:0.05 ()
  in
  let cfg =
    Sim.Interval_sim.default_config ~audit_budget:2 ~estimator ~mode:(proactive ~kc:1 ~ke:0)
      ~update_model:instant_model Sim.Fault_model.none
  in
  let stats = Sim.Interval_sim.run ~rng:(Rng.create 10) cfg input ~demand_series:series in
  let skipped = List.map (fun s -> s.Sim.Interval_sim.solve_skipped) stats in
  Alcotest.(check (list bool)) "first interval solves, the rest skip inside the band"
    [ false; true; true; true; true ] skipped;
  List.iteri
    (fun i (s : Sim.Interval_sim.interval_stats) ->
      if s.Sim.Interval_sim.solve_skipped then
        Alcotest.(check string)
          (Printf.sprintf "interval %d labelled as a skip" i)
          "dead-band-skip" s.Sim.Interval_sim.rung_label;
      (match s.Sim.Interval_sim.kc_verdict with
      | Sim.Southbound.Violation _ -> Alcotest.failf "interval %d: kc violation on a skip" i
      | _ -> ());
      match s.Sim.Interval_sim.gt_data with
      | Sim.Interval_sim.Gt_violation m ->
        Alcotest.failf "interval %d: ground-truth violation: %s" i m
      | _ -> ())
    stats

let test_lossy_sensing_stays_conservative () =
  (* Heavy loss and delayed notifications: suspicion must be charged, and
     neither the live kc check nor the ground-truth data-plane verdict may
     report a violation — imperfect sensing degrades throughput, never
     guarantees. *)
  let sc = lnet () in
  let input = sc.Sim.Scenario.input in
  let series = Sim.Scenario.demand_series (Rng.create 8) sc ~scale:1.0 ~intervals:6 in
  let cfg =
    Sim.Interval_sim.default_config ~audit_budget:2
      ~telemetry:(Sim.Telemetry.config ~loss:0.4 ~delay:1 ~demand_noise:0.1 ())
      ~estimator:(Estimator.config ~headroom:0.2 ())
      ~mode:(proactive ~kc:1 ~ke:1) ~update_model:instant_model Sim.Fault_model.none
  in
  let stats = Sim.Interval_sim.run ~rng:(Rng.create 12) cfg input ~demand_series:series in
  let charges =
    List.fold_left
      (fun a s -> a + s.Sim.Interval_sim.suspect_links + s.Sim.Interval_sim.suspect_switches)
      0 stats
  in
  Alcotest.(check bool) "suspicion charged under heavy loss" true (charges > 0);
  List.iteri
    (fun i (s : Sim.Interval_sim.interval_stats) ->
      (match s.Sim.Interval_sim.kc_verdict with
      | Sim.Southbound.Violation _ -> Alcotest.failf "interval %d: kc violation" i
      | _ -> ());
      match s.Sim.Interval_sim.gt_data with
      | Sim.Interval_sim.Gt_violation m ->
        Alcotest.failf "interval %d: ground-truth violation: %s" i m
      | _ -> ())
    stats

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "telemetry"
    [
      ( "estimator",
        [
          case "passthrough is the identity" test_passthrough_identity;
          case "peaks persist, staleness ages, reconcile resets"
            test_envelope_monotone_and_staleness;
          case "envelope covers truth under loss and noise" test_envelope_covers_truth;
          case "dead-band predicate" test_dead_band_predicate;
        ] );
      ( "channel",
        [
          case "seeded reports are deterministic" test_observe_deterministic;
          case "neutral channel consumes no randomness" test_neutral_consumes_no_randomness;
          case "delayed notifications and reconciliation"
            test_delayed_notification_and_reconcile;
          case "keepalive misses mark suspects" test_keepalive_suspicion;
        ] );
      ( "simulator",
        [
          case "neutral sensing bit-identical to none" test_neutral_sim_bit_identical;
          case "dead-band hysteresis skips re-solves" test_dead_band_skips_resolves;
          case "lossy sensing stays conservative" test_lossy_sensing_stays_conservative;
        ] );
    ]
