(* Tests for the simulation layer: fault and update models, priority-aware
   loss accounting, the multi-step update simulator, scenario calibration,
   and end-to-end sanity of the TE-interval engine. *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Rng = Ffc_util.Rng
module Stats = Ffc_util.Stats

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fault model                                                         *)
(* ------------------------------------------------------------------ *)

let test_fibres_pair_directions () =
  let topo = Topo_gen.fig2 () in
  let fibres = Topology.fibres topo in
  Alcotest.(check int) "5 fibres" 5 (List.length fibres);
  List.iter (fun ids -> Alcotest.(check int) "both directions" 2 (List.length ids)) fibres

let test_forced_link_failures () =
  let topo = Topo_gen.fig2 () in
  let rng = Rng.create 1 in
  let faults = Sim.Fault_model.forced_link_failures rng ~interval_s:300. topo 2 in
  Alcotest.(check int) "two faults" 2 (List.length faults);
  List.iter
    (fun (f : Sim.Fault_model.fault) ->
      Alcotest.(check bool) "time in range" true
        (f.Sim.Fault_model.time_s >= 0. && f.Sim.Fault_model.time_s <= 300.))
    faults;
  (* Sorted by time. *)
  match faults with
  | [ a; b ] ->
    Alcotest.(check bool) "sorted" true (a.Sim.Fault_model.time_s <= b.Sim.Fault_model.time_s)
  | _ -> Alcotest.fail "expected two"

let test_fault_sampling_rate () =
  let rng = Rng.create 3 in
  let topo = Topo_gen.snet () in
  let fm = Sim.Fault_model.lnet_like topo in
  let total = ref 0 in
  let trials = 3000 in
  for _ = 1 to trials do
    total :=
      !total
      + List.length
          (List.filter
             (fun (f : Sim.Fault_model.fault) ->
               match f.Sim.Fault_model.kind with
               | Sim.Fault_model.Link_down _ -> true
               | Sim.Fault_model.Switch_down _ -> false)
             (Sim.Fault_model.sample rng ~interval_s:300. topo fm))
  done;
  (* Expectation: one link failure per 6 intervals. *)
  let per_interval = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "about 1/6" true (per_interval > 0.12 && per_interval < 0.22)

let test_no_faults_model () =
  let rng = Rng.create 4 in
  let topo = Topo_gen.snet () in
  Alcotest.(check int) "none" 0
    (List.length (Sim.Fault_model.sample rng ~interval_s:300. topo Sim.Fault_model.none))

(* ------------------------------------------------------------------ *)
(* Update model                                                        *)
(* ------------------------------------------------------------------ *)

let test_optimistic_never_fails () =
  let rng = Rng.create 5 in
  let m = Sim.Update_model.optimistic () in
  for _ = 1 to 200 do
    match Sim.Update_model.attempt_update rng m with
    | Sim.Update_model.Failed -> Alcotest.fail "optimistic model must not fail"
    | Sim.Update_model.Completed d -> Alcotest.(check bool) "positive" true (d >= 0.)
  done

let test_optimistic_delay_scale () =
  (* 100 rules at ~10 ms median each: total around 1-2 s, per §2.3. *)
  let rng = Rng.create 6 in
  let m = Sim.Update_model.optimistic () in
  let samples = List.init 300 (fun _ -> Sim.Update_model.delay_sample rng m) in
  let med = Stats.median samples in
  Alcotest.(check bool) "median around 1-3 s" true (med > 0.5 && med < 3.)

let test_realistic_fails_sometimes () =
  let rng = Rng.create 7 in
  let m = Sim.Update_model.realistic () in
  let fails = ref 0 in
  for _ = 1 to 2000 do
    match Sim.Update_model.attempt_update rng m with
    | Sim.Update_model.Failed -> incr fails
    | Sim.Update_model.Completed _ -> ()
  done;
  let rate = float_of_int !fails /. 2000. in
  Alcotest.(check bool) "about 1%" true (rate > 0.003 && rate < 0.03)

let test_realistic_slower_than_optimistic () =
  let rng = Rng.create 8 in
  let r = Sim.Update_model.realistic () and o = Sim.Update_model.optimistic () in
  let med m = Stats.median (List.init 200 (fun _ -> Sim.Update_model.delay_sample rng m)) in
  Alcotest.(check bool) "realistic slower" true (med r > med o)

(* ------------------------------------------------------------------ *)
(* Priority-aware loss                                                 *)
(* ------------------------------------------------------------------ *)

let two_class_input () =
  (* One link 0->1 of capacity 10 shared by a high and a low priority
     flow. *)
  let topo = Topology.create 2 in
  let l = Topology.add_link topo 0 1 10. in
  let tn () = Tunnel.create ~id:0 [ l ] in
  let fh = Flow.create ~id:0 ~priority:0 ~src:0 ~dst:1 [ tn () ] in
  let fl = Flow.create ~id:1 ~priority:1 ~src:0 ~dst:1 [ tn () ] in
  { Te_types.topo; flows = [ fh; fl ]; demands = [| 8.; 8. |] }

let test_priority_queueing_drops_low_first () =
  let input = two_class_input () in
  (* 8 high + 8 low on a 10-capacity link: high passes, low loses 6. *)
  let rates = [| [| 8. |]; [| 8. |] |] in
  let drops = Sim.Loss.congestion_rates input rates in
  check_float "high loss" 0. drops.(0);
  check_float "low loss" 6. drops.(1)

let test_priority_queueing_drops_high_when_saturated () =
  let input = two_class_input () in
  let rates = [| [| 12. |]; [| 3. |] |] in
  let drops = Sim.Loss.congestion_rates input rates in
  check_float "high loss" 2. drops.(0);
  check_float "low loss" 3. drops.(1)

let test_class_rate () =
  let input = two_class_input () in
  let per = Sim.Loss.class_rate input (fun f -> if f = 0 then 1.5 else 2.5) in
  check_float "class 0" 1.5 per.(0);
  check_float "class 1" 2.5 per.(1)

(* Property: [Loss.congestion_rates] matches the closed-form strict-priority
   reference. On each link, the classes are served in priority order, so the
   drop of class [c] is the growth of the overflow between the load prefix
   up to [c-1] and up to [c]: over(prefix_c) - over(prefix_{c-1}) with
   over(s) = max 0 (s - capacity). Aggregating that per link must reproduce
   the serve-loop in [congestion_rates] exactly, and the total drop must
   equal the summed link overflows (conservation). *)
let prop_congestion_rates_match_prefix_reference =
  let gen_case =
    QCheck.Gen.(
      map
        (fun seed ->
          let rng = Rng.create seed in
          let te = Ffc_check.Gen.te_instance rng in
          let input = Ffc_check.Gen.te_input te in
          let rates =
            List.map
              (fun (f : Flow.t) ->
                List.map (fun _ -> Rng.uniform rng 0. 400.) f.Flow.tunnels)
              input.Te_types.flows
          in
          (input, rates))
        (int_bound 100_000))
  in
  let arb = QCheck.make gen_case in
  QCheck.Test.make ~count:300 ~name:"congestion_rates matches prefix-sum reference" arb
    (fun (input, rate_lists) ->
      let rates =
        Array.of_list (List.map Array.of_list rate_lists)
      in
      let drops = Sim.Loss.congestion_rates input rates in
      let loads = Sim.Loss.loads_by_class input rates in
      let nc = Array.length loads in
      let reference = Array.make nc 0. in
      let total_overflow = ref 0. in
      Array.iter
        (fun (l : Topology.link) ->
          let lid = l.Topology.id in
          let over s = max 0. (s -. l.Topology.capacity) in
          let prefix = ref 0. in
          for cls = 0 to nc - 1 do
            let below = !prefix in
            prefix := !prefix +. loads.(cls).(lid);
            reference.(cls) <- reference.(cls) +. (over !prefix -. over below)
          done;
          total_overflow := !total_overflow +. over !prefix)
        (Topology.links input.Te_types.topo);
      let close a b = abs_float (a -. b) <= 1e-6 *. (1. +. abs_float a) in
      let per_class_ok = Array.for_all2 close drops reference in
      let total = Array.fold_left ( +. ) 0. drops in
      per_class_ok && close total !total_overflow)

(* ------------------------------------------------------------------ *)
(* Update simulation                                                   *)
(* ------------------------------------------------------------------ *)

let test_update_sim_no_failures_completes () =
  let rng = Rng.create 9 in
  let cfg =
    {
      Sim.Update_sim.steps = 3;
      switches_per_step = 10;
      kc = 0;
      update_model = Sim.Update_model.optimistic ();
      max_time_s = 300.;
    }
  in
  let cs = Sim.Update_sim.sample_completions rng cfg ~count:100 in
  List.iter
    (fun c ->
      match c with
      | Sim.Update_sim.Completed t ->
        Alcotest.(check bool) "finished" true (t > 0. && t < 300.)
      | Sim.Update_sim.Stalled -> Alcotest.fail "stalled without failures")
    cs

let test_update_sim_ffc_faster () =
  let cfg kc =
    {
      Sim.Update_sim.steps = 3;
      switches_per_step = 15;
      kc;
      update_model = Sim.Update_model.optimistic ();
      max_time_s = 300.;
    }
  in
  let med kc =
    Stats.median
      (Sim.Update_sim.censored_times ~max_time_s:300.
         (Sim.Update_sim.sample_completions (Rng.create 10) (cfg kc) ~count:300))
  in
  Alcotest.(check bool) "kc=2 faster than kc=0" true (med 2 < med 0)

let test_update_sim_stalls_without_ffc () =
  let cfg kc =
    {
      Sim.Update_sim.steps = 3;
      switches_per_step = 15;
      kc;
      update_model = Sim.Update_model.realistic ();
      max_time_s = 300.;
    }
  in
  let stall_frac kc =
    Sim.Update_sim.stalled_fraction
      (Sim.Update_sim.sample_completions (Rng.create 11) (cfg kc) ~count:400)
  in
  let without = stall_frac 0 and with_ffc = stall_frac 2 in
  (* 45 attempts at 1%: ~36% of updates see a failure and stall. *)
  Alcotest.(check bool) "non-FFC stalls a lot" true (without > 0.2);
  Alcotest.(check bool) "FFC stalls rarely" true (with_ffc < 0.05)

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_calibration () =
  let sc = Sim.Scenario.lnet_sim ~sites:8 (Rng.create 12) in
  let input = sc.Sim.Scenario.input in
  match Basic_te.solve input with
  | Ok alloc ->
    let ratio = Te_types.throughput alloc /. Traffic.total input.Te_types.demands in
    Alcotest.(check bool) "about 99% satisfied" true (ratio > 0.95 && ratio < 1.0001)
  | Error e -> Alcotest.fail e

let test_scenario_scaled () =
  let sc = Sim.Scenario.lnet_sim ~sites:8 (Rng.create 12) in
  let half = Sim.Scenario.scaled sc 0.5 in
  Alcotest.(check (float 1e-6)) "half demand"
    (0.5 *. Traffic.total sc.Sim.Scenario.input.Te_types.demands)
    (Traffic.total half.Te_types.demands)

let test_scenario_priorities () =
  let sc = Sim.Scenario.lnet_sim ~sites:8 (Rng.create 12) in
  let pr = Sim.Scenario.with_priorities ~fractions:[ 0.2; 0.3; 0.5 ] sc in
  Alcotest.(check int) "3 classes" 3 (Sim.Loss.num_classes pr.Sim.Scenario.input)

(* ------------------------------------------------------------------ *)
(* Interval engine                                                     *)
(* ------------------------------------------------------------------ *)

let small_scenario () = Sim.Scenario.lnet_sim ~sites:8 ~nflows:8 (Rng.create 20)

let run_engine ?forced ~mode ~update_model ~fault_model ~intervals sc =
  let input = sc.Sim.Scenario.input in
  let series = Sim.Scenario.demand_series (Rng.create 21) sc ~scale:1.0 ~intervals in
  let base = Sim.Interval_sim.default_config ~mode ~update_model fault_model in
  let cfg = { base with Sim.Interval_sim.forced_faults = forced } in
  Sim.Interval_sim.run ~rng:(Rng.create 22) cfg input ~demand_series:series

let test_engine_no_faults_no_loss () =
  let sc = small_scenario () in
  let stats =
    run_engine ~mode:Sim.Interval_sim.Reactive
      ~update_model:(Sim.Update_model.optimistic ())
      ~fault_model:Sim.Fault_model.none ~intervals:4 sc
  in
  Alcotest.(check int) "4 intervals" 4 (List.length stats);
  List.iter
    (fun s ->
      check_float "no loss" 0. (Sim.Interval_sim.total_lost s);
      Alcotest.(check int) "no faults" 0 s.Sim.Interval_sim.data_faults;
      Alcotest.(check bool) "delivered positive" true (Sim.Interval_sim.total_delivered s > 0.))
    stats

let forced_one_fault rng _idx =
  let topo = (small_scenario ()).Sim.Scenario.input.Te_types.topo in
  Sim.Fault_model.forced_link_failures rng ~interval_s:300. topo 1

let test_engine_reactive_loses_on_faults () =
  let sc = small_scenario () in
  let stats =
    run_engine
      ~forced:(fun rng idx -> forced_one_fault rng idx)
      ~mode:Sim.Interval_sim.Reactive
      ~update_model:(Sim.Update_model.optimistic ())
      ~fault_model:Sim.Fault_model.none ~intervals:6 sc
  in
  let lost = List.fold_left (fun a s -> a +. Sim.Interval_sim.total_lost s) 0. stats in
  Alcotest.(check bool) "some loss across intervals" true (lost > 0.)

let test_engine_ffc_protects_single_failures () =
  let sc = small_scenario () in
  let ffc _ =
    Ffc.config ~protection:(Te_types.protection ~ke:1 ()) ~encoding:`Duality ()
  in
  let stats =
    run_engine
      ~forced:(fun rng idx -> forced_one_fault rng idx)
      ~mode:(Sim.Interval_sim.Proactive ffc)
      ~update_model:(Sim.Update_model.optimistic ())
      ~fault_model:Sim.Fault_model.none ~intervals:4 sc
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "congestion-free" true
        (List.for_all
           (fun c -> c.Sim.Interval_sim.lost_congestion_gb < 1e-6)
           (Array.to_list s.Sim.Interval_sim.per_class)))
    stats

(* Deterministic loss accounting on a hand-built scenario: a diamond where
   basic TE routes everything on the direct links, a link failure at t=100 s
   blackholes one flow until the controller's (deterministic-delay) reaction
   lands. *)
let diamond_scenario () =
  let topo = Topo_gen.fig2 () in
  let link u v = Option.get (Topology.find_link topo u v) in
  let tn id hops =
    let rec links = function
      | a :: (b :: _ as rest) -> link a b :: links rest
      | _ -> []
    in
    Tunnel.create ~id (links hops)
  in
  let flows =
    [
      Flow.create ~id:0 ~src:1 ~dst:3 [ tn 0 [ 1; 3 ]; tn 1 [ 1; 0; 3 ] ];
      Flow.create ~id:1 ~src:2 ~dst:3 [ tn 2 [ 2; 3 ]; tn 3 [ 2; 0; 3 ] ];
    ]
  in
  ({ Te_types.topo; flows; demands = [| 10.; 10. |] }, link 1 3)

let deterministic_update_model delay_s =
  {
    Sim.Update_model.name = "deterministic";
    rpc_s = (fun _ -> 0.);
    per_rule_s = (fun _ -> delay_s /. 100.);
    switch_factor = (fun _ -> 1.);
    rules_per_update = 100;
    config_fail_prob = 0.;
    outage_prob = 0.;
    outage_duration_s = (fun _ -> 0.);
  }

let test_engine_loss_accounting () =
  let input, fail_link = diamond_scenario () in
  let fault_at = 100. in
  let forced _ _ = [ { Sim.Fault_model.time_s = fault_at; kind = Sim.Fault_model.Link_down [ fail_link.Topology.id ] } ] in
  let base =
    Sim.Interval_sim.default_config ~mode:Sim.Interval_sim.Reactive
      ~update_model:(deterministic_update_model 0.1) Sim.Fault_model.none
  in
  let cfg = { base with Sim.Interval_sim.forced_faults = Some forced } in
  let stats =
    Sim.Interval_sim.run ~rng:(Rng.create 1) cfg input ~demand_series:[| input.Te_types.demands |]
  in
  match stats with
  | [ s ] ->
    (* Basic TE fills the direct links: flow 0 sends 10 Gbps on the failed
       link. Blackhole burst: 10 x (detect + notify) = 10 x 0.055 Gb.
       Undeliverable (no residual allocation): 10 Gbps from the fault until
       the reaction lands at fault + 0.055 + (compute 0.5 + update 0.1). *)
    let expect = (10. *. 0.055) +. (10. *. (0.055 +. 0.5 +. 0.1)) in
    Alcotest.(check (float 1e-6)) "lost Gb" expect (Sim.Interval_sim.total_lost s);
    Alcotest.(check bool) "reacted" true s.Sim.Interval_sim.reacted;
    Alcotest.(check int) "one data fault" 1 s.Sim.Interval_sim.data_faults
  | _ -> Alcotest.fail "expected one interval"

let test_engine_ffc_loss_is_burst_only () =
  (* One flow under FFC ke=1: both tunnels must carry the full 10 Gbps, so
     traffic splits 5/5 and only the 55 ms blackhole burst on the failed
     tunnel is lost; the controller reaction does not matter. *)
  let input, fail_link = diamond_scenario () in
  let input =
    { input with Te_types.flows = [ List.hd input.Te_types.flows ]; demands = [| 10. |] }
  in
  let forced _ _ = [ { Sim.Fault_model.time_s = 100.; kind = Sim.Fault_model.Link_down [ fail_link.Topology.id ] } ] in
  let ffc _ =
    Ffc.config ~protection:(Te_types.protection ~ke:1 ()) ~mice_fraction:0. ()
  in
  let base =
    Sim.Interval_sim.default_config ~mode:(Sim.Interval_sim.Proactive ffc)
      ~update_model:(deterministic_update_model 0.1) Sim.Fault_model.none
  in
  let cfg = { base with Sim.Interval_sim.forced_faults = Some forced } in
  let stats =
    Sim.Interval_sim.run ~rng:(Rng.create 1) cfg input ~demand_series:[| input.Te_types.demands |]
  in
  match stats with
  | [ s ] ->
    (* b = 10 over tunnels allocated [10, 10], split 5/5: the failed direct
       tunnel carries 5 Gbps for the 55 ms detection window. *)
    Alcotest.(check (float 1e-6)) "burst only" (5. *. 0.055) (Sim.Interval_sim.total_lost s)
  | _ -> Alcotest.fail "expected one interval"

let test_engine_deterministic () =
  let sc = small_scenario () in
  let run () =
    run_engine ~mode:Sim.Interval_sim.Reactive
      ~update_model:(Sim.Update_model.realistic ())
      ~fault_model:(Sim.Fault_model.lnet_like sc.Sim.Scenario.input.Te_types.topo)
      ~intervals:5 sc
  in
  let a = run () and b = run () in
  Alcotest.(check (list (float 1e-9)))
    "same loss sequence"
    (List.map Sim.Interval_sim.total_lost a)
    (List.map Sim.Interval_sim.total_lost b)

(* Seeded identity of the whole interval pipeline: three arms on a 6-site
   L-Net under FFC (1,1), whose `--stats-json` streams are pinned by MD5.
   Arms 1 and 2 drive constant demands through lossy, delayed sensing with
   a dead-band estimator, a forced crash at interval 3 (500 s: two
   intervals down) and a forced fibre cut every 4th interval, recovering
   from the journal and cold respectively; arm 3 pushes with one attempt
   per switch at a coin-flip failure rate, so more switches go stale than
   kc covers. Between them the streams reach every branch of an interval:
   controller down, dead-band skip, journaled and cold recovery, an
   escalated step and a beyond-budget kc verdict. Any refactor of the
   simulator must leave these bytes unchanged. *)
let pinned_arm ~recovery ~sensing ~retry ~update_model ~scale =
  let sc = Sim.Scenario.lnet_sim ~sites:6 (Rng.create 31) in
  let input = sc.Sim.Scenario.input in
  let topo = input.Te_types.topo in
  let intervals = 12 in
  let demand_series = Array.make intervals (Sim.Scenario.scaled sc scale).Te_types.demands in
  let ffc _ =
    Ffc.config ~protection:(Te_types.protection ~kc:1 ~ke:1 ()) ~encoding:`Duality ()
  in
  let telemetry, estimator, outage =
    if sensing then
      ( Some (Sim.Telemetry.config ~loss:0.25 ~delay:1 ()),
        Some (Estimator.config ~alpha:1. ~peak_decay:0. ~headroom:0. ~dead_band:0.05 ()),
        Some (Sim.Interval_sim.controller_outage ~forced_crashes:[ (3, 500.) ] recovery) )
    else (None, None, None)
  in
  let base =
    Sim.Interval_sim.default_config ~retry ?telemetry ?estimator ?outage
      ~mode:(Sim.Interval_sim.Proactive ffc) ~update_model Sim.Fault_model.none
  in
  let forced rng idx =
    if idx mod 4 = 0 then Sim.Fault_model.forced_link_failures rng ~interval_s:300. topo 1
    else []
  in
  let cfg = { base with Sim.Interval_sim.forced_faults = Some forced } in
  Sim.Interval_sim.run ~rng:(Rng.create 32) cfg input ~demand_series

(* The edge benchmark's sim-reactive configuration on default L-Net: basic
   TE reacting to every lnet-like fault, lossy, delayed and noisy sensing
   through the default estimator, and random controller crashes recovered
   from the journal. The only pinned arm with reactive mode and random
   crashes. *)
let reactive_arm () =
  let sc = Sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Sim.Scenario.input in
  let demand_series = Sim.Scenario.demand_series (Rng.create 43) sc ~scale:0.6 ~intervals:300 in
  let cfg =
    Sim.Interval_sim.default_config
      ~telemetry:(Sim.Telemetry.config ~loss:0.25 ~delay:2 ~demand_noise:0.08 ())
      ~estimator:(Estimator.config ())
      ~outage:
        (Sim.Interval_sim.controller_outage ~crash_per_interval:0.05
           Sim.Interval_sim.Journaled_restart)
      ~mode:Sim.Interval_sim.Reactive ~update_model:(Sim.Update_model.realistic ())
      (Sim.Fault_model.lnet_like input.Te_types.topo)
  in
  Sim.Interval_sim.run ~rng:(Rng.create 44) cfg input ~demand_series

let stream_digest stats =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Sim.Interval_sim.stats_json_line stats)))

let test_engine_pinned_streams () =
  let realistic = Sim.Update_model.realistic () in
  let sensed recovery =
    pinned_arm ~recovery ~sensing:true ~retry:Sim.Southbound.default_retry
      ~update_model:realistic ~scale:0.3
  in
  let journaled = sensed Sim.Interval_sim.Journaled_restart in
  let cold = sensed Sim.Interval_sim.Cold_restart in
  let single =
    pinned_arm ~recovery:Sim.Interval_sim.Cold_restart ~sensing:false
      ~retry:(Sim.Southbound.retry_policy ~max_attempts:1 ())
      ~update_model:{ realistic with Sim.Update_model.config_fail_prob = 0.5 }
      ~scale:0.6
  in
  let all = journaled @ cold @ single in
  let has what p = Alcotest.(check bool) what true (List.exists p all) in
  let open Sim.Interval_sim in
  has "controller down" (fun s -> s.controller_down);
  has "dead-band skip" (fun s -> s.solve_skipped);
  has "journaled recovery" (fun s -> s.recovered_from_journal);
  has "cold recovery" (fun s -> s.recovery_interval && not s.recovered_from_journal);
  has "escalated step" (fun s -> s.escalated);
  has "beyond-budget verdict" (fun s ->
      match s.kc_verdict with Sim.Southbound.Beyond_budget _ -> true | _ -> false);
  let reactive = reactive_arm () in
  let reactive_has what p = Alcotest.(check bool) what true (List.exists p reactive) in
  reactive_has "reactive: controller down" (fun s -> s.controller_down);
  reactive_has "reactive: journaled recovery" (fun s -> s.recovered_from_journal);
  reactive_has "reactive: reaction" (fun s -> s.reacted);
  Alcotest.(check (list string))
    "stream digests"
    [
      "1a98d8f5f69167917e53d0e56a355e3d";
      "40bdf41c6889c17ea4dff9b7c330add1";
      "1d67181f3a4ae69b6650afbfe7c4f98b";
      "6dc8c4f237c159c0b539c9819d9fb047";
    ]
    [
      stream_digest journaled; stream_digest cold; stream_digest single;
      stream_digest reactive;
    ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sim"
    [
      ( "fault-model",
        [
          case "fibres pair directions" test_fibres_pair_directions;
          case "forced link failures" test_forced_link_failures;
          case "sampling rate calibrated" test_fault_sampling_rate;
          case "none model" test_no_faults_model;
        ] );
      ( "update-model",
        [
          case "optimistic never fails" test_optimistic_never_fails;
          case "optimistic delay scale" test_optimistic_delay_scale;
          case "realistic fails ~1%" test_realistic_fails_sometimes;
          case "realistic slower" test_realistic_slower_than_optimistic;
        ] );
      ( "loss",
        [
          case "drops low priority first" test_priority_queueing_drops_low_first;
          case "drops high when saturated" test_priority_queueing_drops_high_when_saturated;
          case "class rates" test_class_rate;
          QCheck_alcotest.to_alcotest prop_congestion_rates_match_prefix_reference;
        ] );
      ( "update-sim",
        [
          case "completes without failures" test_update_sim_no_failures_completes;
          case "FFC faster" test_update_sim_ffc_faster;
          case "non-FFC stalls" test_update_sim_stalls_without_ffc;
        ] );
      ( "scenario",
        [
          case "calibration" test_scenario_calibration;
          case "scaling" test_scenario_scaled;
          case "priorities" test_scenario_priorities;
        ] );
      ( "engine",
        [
          case "no faults, no loss" test_engine_no_faults_no_loss;
          case "reactive loses on faults" test_engine_reactive_loses_on_faults;
          case "FFC absorbs single failures" test_engine_ffc_protects_single_failures;
          case "loss accounting (hand-computed)" test_engine_loss_accounting;
          case "FFC loses only the detection burst" test_engine_ffc_loss_is_burst_only;
          case "deterministic" test_engine_deterministic;
          case "pinned interval streams" test_engine_pinned_streams;
        ] );
    ]
