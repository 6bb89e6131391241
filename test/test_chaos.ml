(* Tests for the chaos layer: a journaled controller restart (the audit
   stream continues, the LPs start cold), correlated fault injection
   (SRLGs, burst windows, stream discipline), the controller availability
   model in the interval simulator (including a crash before any journal
   exists), the finite reaction-delay retry timeline, and the adversarial
   guarantee hunter's plan machinery. *)

open Ffc_net
open Ffc_core
module Sim = Ffc_sim
module Chaos = Ffc_check.Chaos
module Rng = Ffc_util.Rng

(* A control plane that always succeeds instantly (deterministic timelines)
   and one that never succeeds at all. *)
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

let always_fail_model = { instant_model with Sim.Update_model.config_fail_prob = 1. }

(* Two ingresses feeding a shared sink; [c12] is link 1->2's capacity. *)
let small_input ?(c12 = 20.) () =
  let topo = Topology.create 3 in
  let a = Topology.add_link topo 0 2 10. in
  let b = Topology.add_link topo 0 1 20. in
  let c = Topology.add_link topo 1 2 c12 in
  let f0 =
    Flow.create ~id:0 ~src:0 ~dst:2 [ Tunnel.create ~id:0 [ a ]; Tunnel.create ~id:1 [ b; c ] ]
  in
  let f1 = Flow.create ~id:1 ~src:1 ~dst:2 [ Tunnel.create ~id:2 [ c ] ] in
  { Te_types.topo; flows = [ f0; f1 ]; demands = [| 8.; 2. |] }

(* ------------------------------------------------------------------ *)
(* Controller restart                                                  *)
(* ------------------------------------------------------------------ *)

(* A restarted controller continues its never-crashed twin's steps and
   audit stream, and starts its LPs cold. Audit draws show only when a
   sampled case fails, so the audit runs against a network whose link
   1->2 is cut to 6 Gbps: some sampled cases fail and others pass, and a
   reseeded audit RNG reports a different count and first violation. *)
let test_controller_restart_continues_twin () =
  let input = small_input () and audit_input = small_input ~c12:6. () in
  let cfg =
    Controller.config ~audit_budget:8 ~audit_seed:9
      (Controller.Ffc_ladder
         (fun _ ->
           Ffc.config
             ~protection:(Te_types.protection ~kc:1 ~ke:1 ())
             ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ()))
  in
  let step ctrl prev = Controller.step ctrl ~audit_input input ~prev in
  let ctrl = Controller.create cfg and twin = Controller.create cfg in
  let prev = ref (Te_types.zero_allocation input) in
  for _ = 1 to 2 do
    let s = step ctrl !prev in
    ignore (step twin !prev);
    prev := s.Controller.alloc
  done;
  let restarted = Controller.restart ctrl in
  let audit (s : Controller.step) =
    match s.Controller.audit with
    | Some a -> (a.Controller.audit_violations, a.Controller.first_violation)
    | None -> Alcotest.fail "auditing is on"
  in
  let warm (s : Controller.step) =
    List.for_all
      (fun (_, (st : Ffc.stats)) ->
        match st.Ffc.solver with
        | Some sv -> sv.Ffc_lp.Problem.warm_started
        | None -> false)
      s.Controller.per_class_stats
  in
  let fresh = step (Controller.create cfg) !prev in
  for i = 3 to 4 do
    let s = step restarted !prev and t = step twin !prev in
    let name what = Printf.sprintf "step %d: %s" i what in
    Alcotest.(check (array (float 0.))) (name "same rates") t.Controller.alloc.Te_types.bf
      s.Controller.alloc.Te_types.bf;
    Alcotest.(check (array (array (float 0.))))
      (name "same tunnel allocations") t.Controller.alloc.Te_types.af
      s.Controller.alloc.Te_types.af;
    Alcotest.(check int) (name "same rung") t.Controller.rung s.Controller.rung;
    Alcotest.(check (pair int (option string))) (name "same audit") (audit t) (audit s);
    Alcotest.(check bool) (name "warm only after the first step") (i > 3) (warm s);
    if i = 3 then begin
      Alcotest.(check bool) "the twin starts warm" true (warm t);
      Alcotest.(check bool) "some audited cases fail" true (fst (audit s) > 0);
      Alcotest.(check bool) "a reseeded audit stream reports otherwise" true
        (audit fresh <> audit s)
    end;
    prev := s.Controller.alloc
  done

(* ------------------------------------------------------------------ *)
(* Correlated fault injection                                          *)
(* ------------------------------------------------------------------ *)

let lnet_topo () =
  let sc = Sim.Scenario.lnet_sim ~sites:6 (Rng.create 5) in
  sc.Sim.Scenario.input.Te_types.topo

let test_none_yields_empty_timeline () =
  let topo = lnet_topo () in
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check int) "no faults" 0
      (List.length (Sim.Fault_model.sample rng ~interval_s:300. topo Sim.Fault_model.none))
  done

let test_correlated_stream_discipline () =
  (* A model with no SRLGs and burst_prob 0 must consume exactly the same
     random stream as the base model: identical timelines AND identical
     post-sample generator state. *)
  let topo = lnet_topo () in
  let base = Sim.Fault_model.lnet_like topo in
  let layered = Sim.Fault_model.correlated ~burst_prob:0. ~burst_factor:2. base in
  let ra = Rng.create 11 and rb = Rng.create 11 in
  for _ = 1 to 20 do
    let fa = Sim.Fault_model.sample ra ~interval_s:300. topo base in
    let fb = Sim.Fault_model.sample rb ~interval_s:300. topo layered in
    Alcotest.(check int) "same fault count" (List.length fa) (List.length fb);
    List.iter2
      (fun (a : Sim.Fault_model.fault) b ->
        Alcotest.(check (float 0.)) "same time" a.Sim.Fault_model.time_s b.Sim.Fault_model.time_s)
      fa fb
  done;
  Alcotest.(check (float 0.)) "same generator state" (Rng.float ra 1.) (Rng.float rb 1.)

let test_srlg_and_burst () =
  let topo = lnet_topo () in
  let srlg = List.concat (Sim.Fault_model.random_srlgs (Rng.create 1) topo ~groups:1 ~width:2) in
  let m =
    Sim.Fault_model.correlated ~srlgs:[ srlg ] ~srlg_fail_per_interval:1.
      (Sim.Fault_model.independent ~link_fail_per_interval:0. ~switch_fail_per_interval:0.)
  in
  let faults = Sim.Fault_model.sample (Rng.create 2) ~interval_s:300. topo m in
  Alcotest.(check int) "the conduit cut arrives" 1 (List.length faults);
  (match (List.hd faults).Sim.Fault_model.kind with
  | Sim.Fault_model.Link_down ids ->
    Alcotest.(check (list int)) "all member links fail together" (List.sort compare srlg)
      (List.sort compare ids)
  | Sim.Fault_model.Switch_down _ -> Alcotest.fail "expected a link-group fault");
  (* A certain burst with a saturating factor takes down every fibre. *)
  let nf = List.length (Topology.fibres topo) in
  let burst =
    Sim.Fault_model.correlated ~burst_prob:1. ~burst_factor:1e9
      (Sim.Fault_model.independent ~link_fail_per_interval:1e-6 ~switch_fail_per_interval:0.)
  in
  let faults = Sim.Fault_model.sample (Rng.create 2) ~interval_s:300. topo burst in
  Alcotest.(check int) "burst saturates every fibre" nf (List.length faults);
  Alcotest.(check bool) "validation: empty group" true
    (try
       ignore (Sim.Fault_model.correlated ~srlgs:[ [] ] m);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "validation: factor < 1" true
    (try
       ignore (Sim.Fault_model.correlated ~burst_factor:0.5 m);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Reaction delay: finite retry timeline                               *)
(* ------------------------------------------------------------------ *)

let test_reaction_delay_finite () =
  let cfg m =
    Sim.Interval_sim.default_config ~mode:Sim.Interval_sim.Reactive ~update_model:m
      Sim.Fault_model.none
  in
  (* Every attempt fails: the correction pins at the interval end instead of
     the old model's [infinity]. *)
  let c = cfg always_fail_model in
  let d = Sim.Interval_sim.reaction_delay (Rng.create 4) c 5 in
  Alcotest.(check (float 1e-9)) "never-landing ingress pins at interval end"
    (Sim.Interval_sim.compute_s +. c.Sim.Interval_sim.interval_s)
    d;
  (* Mixed success/failure over many seeds: always finite, always within
     compute + interval. *)
  let flaky = { instant_model with Sim.Update_model.config_fail_prob = 0.5 } in
  let c = cfg flaky in
  for seed = 0 to 199 do
    let d = Sim.Interval_sim.reaction_delay (Rng.create seed) c 8 in
    if not (Float.is_finite d) then Alcotest.failf "seed %d: infinite reaction delay" seed;
    if d > Sim.Interval_sim.compute_s +. c.Sim.Interval_sim.interval_s +. 1e-9 then
      Alcotest.failf "seed %d: reaction delay %g exceeds the interval" seed d
  done;
  (* Every attempt completes in 8 s, inside the 10 s timeout but past the
     edge of a 5 s interval: as for a push, that attempt has not landed,
     so the reaction pins at the interval end. *)
  let late = { instant_model with Sim.Update_model.rpc_s = (fun _ -> 8.) } in
  let c = { (cfg late) with Sim.Interval_sim.interval_s = 5. } in
  let d = Sim.Interval_sim.reaction_delay (Rng.create 9) c 3 in
  Alcotest.(check (float 1e-9)) "completion past the edge pins at interval end"
    (Sim.Interval_sim.compute_s +. c.Sim.Interval_sim.interval_s)
    d

(* ------------------------------------------------------------------ *)
(* Availability model in the interval simulator                        *)
(* ------------------------------------------------------------------ *)

let crash_plan =
  {
    Chaos.p_seed = 11;
    p_sites = 4;
    p_intervals = 5;
    p_scale = 1.0;
    p_kc = 1;
    p_ke = 1;
    p_kv = 0;
    p_realistic = false;
    p_faults =
      [ { Chaos.fs_interval = 3; fs_time = 0.4; fs_elem = Chaos.Fibre 2 } ];
    p_crash = Some { Chaos.cr_interval = 1; cr_downtime = 400. };
    p_telemetry = None;
  }

let test_outage_flags_and_journal_recovery () =
  let flags stats =
    List.map
      (fun (s : Sim.Interval_sim.interval_stats) ->
        ( s.Sim.Interval_sim.controller_down,
          s.Sim.Interval_sim.recovery_interval,
          s.Sim.Interval_sim.recovered_from_journal ))
      stats
  in
  let check_plan what plan expected =
    let stats = Chaos.run_plan plan in
    Alcotest.(check (list (triple bool bool bool))) what expected (flags stats);
    List.iteri
      (fun i (s : Sim.Interval_sim.interval_stats) ->
        if s.Sim.Interval_sim.controller_down then begin
          Alcotest.(check int) (Printf.sprintf "interval %d rung" i) (-1) s.Sim.Interval_sim.rung;
          Alcotest.(check string)
            (Printf.sprintf "interval %d label" i)
            "controller-down" s.Sim.Interval_sim.rung_label;
          Alcotest.(check bool)
            (Printf.sprintf "interval %d no reaction" i)
            false s.Sim.Interval_sim.reacted
        end)
      stats
  in
  (* Crash at interval 1 for 400 s: intervals 1 and 2 down (down_until =
     700 s), interval 3 recovers from the journal. *)
  check_plan "down/recovery/journal flags" crash_plan
    [
      (false, false, false);
      (true, false, false);
      (true, false, false);
      (false, true, true);
      (false, false, false);
    ];
  (* Crash at interval 0: no step completed, so there is no journal and
     the recovery at interval 2 boots cold. *)
  check_plan "a crash before the first step boots cold"
    { crash_plan with Chaos.p_crash = Some { Chaos.cr_interval = 0; cr_downtime = 400. } }
    [
      (true, false, false);
      (true, false, false);
      (false, true, false);
      (false, false, false);
      (false, false, false);
    ]

let test_run_plan_deterministic () =
  let a = Chaos.run_plan crash_plan and b = Chaos.run_plan crash_plan in
  let key stats =
    List.map
      (fun (s : Sim.Interval_sim.interval_stats) ->
        Printf.sprintf "%.12g/%d/%s" (Sim.Interval_sim.total_lost s)
          s.Sim.Interval_sim.data_faults s.Sim.Interval_sim.rung_label)
      stats
  in
  Alcotest.(check (list string)) "identical runs" (key a) (key b);
  Alcotest.(check bool) "plan passes the oracle" true (Chaos.test crash_plan = Ffc_check.Fuzz.Pass)

let test_fault_timeline_identical_across_recovery_arms () =
  (* Same seed, same forced crash, different recovery strategies: the
     data-plane fault sequence must be identical interval by interval. *)
  let sc = Sim.Scenario.lnet_sim ~sites:5 (Rng.create 21) in
  let input = sc.Sim.Scenario.input in
  let fm =
    Sim.Fault_model.correlated ~burst_prob:0.3 ~burst_factor:5.
      (Sim.Fault_model.independent ~link_fail_per_interval:0.02
         ~switch_fail_per_interval:0.005)
  in
  let series = Sim.Scenario.demand_series (Rng.create 22) sc ~scale:1.0 ~intervals:8 in
  let arm recovery =
    let outage =
      Sim.Interval_sim.controller_outage ~forced_crashes:[ (2, 500.) ] recovery
    in
    let cfg =
      Sim.Interval_sim.default_config ~audit_budget:0 ~outage
        ~mode:Sim.Interval_sim.Reactive ~update_model:instant_model fm
    in
    Sim.Interval_sim.run ~rng:(Rng.create 9) cfg input ~demand_series:series
  in
  let cold = arm Sim.Interval_sim.Cold_restart in
  let warm = arm Sim.Interval_sim.Journaled_restart in
  List.iter2
    (fun (a : Sim.Interval_sim.interval_stats) (b : Sim.Interval_sim.interval_stats) ->
      Alcotest.(check int) "same fault count" a.Sim.Interval_sim.data_faults
        b.Sim.Interval_sim.data_faults;
      Alcotest.(check bool) "same downtime" a.Sim.Interval_sim.controller_down
        b.Sim.Interval_sim.controller_down)
    cold warm;
  Alcotest.(check bool) "journaled arm restored" true
    (List.exists (fun s -> s.Sim.Interval_sim.recovered_from_journal) warm)

(* Obs is the one home of lifetime counts: across a journaled restart its
   controller.* and southbound.* counters equal the sums of the matching
   per-interval stats. An update model that fails half its attempts moves
   the retry counters, and a pivot cap that fails some ladder rungs moves
   the fallback counter. *)
let test_obs_counts_lifetime_across_restart () =
  let module Obs = Ffc_obs.Obs in
  Obs.disable ();
  Obs.reset ();
  Obs.enable ~tracing:false ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let sc = Sim.Scenario.lnet_sim ~sites:5 (Rng.create 21) in
  let input = sc.Sim.Scenario.input in
  let series = Sim.Scenario.demand_series (Rng.create 22) sc ~scale:0.8 ~intervals:8 in
  let ffc _ =
    Ffc.config ~protection:(Te_types.protection ~kc:1 ~ke:1 ()) ~encoding:`Duality ()
  in
  let realistic = Sim.Update_model.realistic () in
  let cfg =
    Sim.Interval_sim.default_config ~audit_budget:2 ~max_iterations:40
      ~outage:
        (Sim.Interval_sim.controller_outage ~forced_crashes:[ (2, 500.) ]
           Sim.Interval_sim.Journaled_restart)
      ~mode:(Sim.Interval_sim.Proactive ffc)
      ~update_model:{ realistic with Sim.Update_model.config_fail_prob = 0.5 }
      Sim.Fault_model.none
  in
  let stats = Sim.Interval_sim.run ~rng:(Rng.create 9) cfg input ~demand_series:series in
  let counter name =
    match List.assoc_opt name (Obs.snapshot ()) with
    | Some (Obs.Counter_v v) -> int_of_float v
    | _ -> Alcotest.failf "no counter %s" name
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let open Sim.Interval_sim in
  let sb f = sum (fun s -> f s.southbound) in
  let check name expected = Alcotest.(check int) name expected (counter name) in
  check "southbound.attempts" (sb (fun r -> r.Sim.Southbound.attempts));
  check "southbound.retries" (sb (fun r -> r.Sim.Southbound.retries));
  check "southbound.retry_successes" (sb (fun r -> r.Sim.Southbound.retry_successes));
  check "southbound.failures" (sb (fun r -> r.Sim.Southbound.failures));
  check "southbound.timeouts" (sb (fun r -> r.Sim.Southbound.timeouts));
  check "southbound.outages_started" (sb (fun r -> r.Sim.Southbound.outages_started));
  check "controller.fallbacks" (sum (fun s -> s.solver_fallbacks));
  check "controller.deadline_hits" (sum (fun s -> s.deadline_hits));
  check "controller.steps"
    (sum (fun s -> if s.controller_down || s.solve_skipped then 0 else 1));
  Alcotest.(check bool) "a retry happened" true (counter "southbound.retries" > 0);
  Alcotest.(check bool) "a fallback happened" true (counter "controller.fallbacks" > 0);
  Alcotest.(check bool) "the journal was used" true
    (List.exists (fun s -> s.recovered_from_journal) stats)

(* ------------------------------------------------------------------ *)
(* Hunter machinery                                                    *)
(* ------------------------------------------------------------------ *)

let test_plan_shrink_and_repro () =
  let p = Chaos.generate (Rng.create 13) in
  let shrunk = Chaos.shrink p in
  Alcotest.(check bool) "shrink produces candidates" true (shrunk <> []);
  List.iter
    (fun (q : Chaos.plan) ->
      Alcotest.(check bool) "intervals stay positive" true (q.Chaos.p_intervals >= 1);
      Alcotest.(check bool) "sites stay >= 3" true (q.Chaos.p_sites >= 3);
      List.iter
        (fun f ->
          Alcotest.(check bool) "faults stay in range" true
            (f.Chaos.fs_interval < q.Chaos.p_intervals))
        q.Chaos.p_faults)
    shrunk;
  let snippet = Chaos.repro crash_plan in
  Alcotest.(check bool) "repro mentions the module" true
    (String.length snippet > 0
    &&
    let re = "Ffc_check.Chaos" in
    let rec contains i =
      i + String.length re <= String.length snippet
      && (String.sub snippet i (String.length re) = re || contains (i + 1))
    in
    contains 0)

let test_hunt_clean_within_protection () =
  let r = Chaos.hunt ~seed:5 ~budget:6 ~sites:4 ~intervals:4 ~kc:1 ~ke:1 ~kv:0 () in
  Alcotest.(check bool) "budget respected" true (r.Chaos.h_evaluated <= 6);
  Alcotest.(check bool) "no violation within protection" true (r.Chaos.h_finding = None)

(* Regression for the crash-swallowing bug: the old hunter evaluated each
   plan as [try score (run_plan p) with _ -> 0.], so a simulator exception
   scored worst-possible and vanished. A raise forced through the test hook
   must now surface as a shrunk ["crash:"] finding with a runnable repro. *)
let test_hunt_surfaces_simulator_crashes () =
  Chaos.run_plan_hook :=
    (fun (p : Chaos.plan) ->
      if p.Chaos.p_sites >= 4 then failwith "injected simulator fault");
  Fun.protect
    ~finally:(fun () -> Chaos.run_plan_hook := fun _ -> ())
    (fun () ->
      let r = Chaos.hunt ~seed:5 ~budget:12 ~sites:5 ~intervals:4 ~kc:1 ~ke:1 ~kv:0 () in
      match r.Chaos.h_finding with
      | None -> Alcotest.fail "injected crash was swallowed"
      | Some f ->
        Alcotest.(check string) "crash category" "crash"
          (Ffc_check.Fuzz.category f.Chaos.c_message);
        Alcotest.(check string) "shrunk message keeps the category" "crash"
          (Ffc_check.Fuzz.category f.Chaos.c_min_message);
        (* The shrinker ran: the minimal plan is at the smallest site count
           that still triggers the hook. *)
        Alcotest.(check int) "shrunk to the crash threshold" 4
          f.Chaos.c_min_plan.Chaos.p_sites;
        Alcotest.(check bool) "repro is printable" true
          (String.length f.Chaos.c_repro > 0))

(* Restart climbers run one per domain with pre-split RNG streams; the
   parallel hunt must agree with the sequential one exactly — same
   evaluation count, same best score, same (absent or identical) finding. *)
let test_hunt_parallel_identity () =
  let key (r : Chaos.hunt_report) =
    ( r.Chaos.h_evaluated,
      r.Chaos.h_best_score,
      Option.map
        (fun (f : Chaos.finding) -> (f.Chaos.c_message, f.Chaos.c_min_message, f.Chaos.c_repro))
        r.Chaos.h_finding )
  in
  let run ?pool () =
    Chaos.hunt ?pool ~seed:5 ~budget:16 ~sites:4 ~intervals:3 ~kc:1 ~ke:1 ~kv:0 ()
  in
  let seq = key (run ()) in
  Ffc_util.Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check bool) "parallel hunt matches sequential" true
        (key (run ~pool:p ()) = seq))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "chaos"
    [
      ( "controller",
        [
          case "restart continues the twin's steps and audits"
            test_controller_restart_continues_twin;
        ] );
      ( "faults",
        [
          case "none yields an empty timeline" test_none_yields_empty_timeline;
          case "no-op correlation preserves the stream" test_correlated_stream_discipline;
          case "SRLG conduit cuts and burst windows" test_srlg_and_burst;
        ] );
      ( "reaction",
        [ case "retry timeline is always finite" test_reaction_delay_finite ] );
      ( "availability",
        [
          case "downtime/recovery flags and journaled restore"
            test_outage_flags_and_journal_recovery;
          case "plans run deterministically and pass" test_run_plan_deterministic;
          case "fault timeline identical across recovery arms"
            test_fault_timeline_identical_across_recovery_arms;
          case "Obs counts lifetimes across a restart" test_obs_counts_lifetime_across_restart;
        ] );
      ( "hunter",
        [
          case "shrinking keeps plans valid; repro is printable" test_plan_shrink_and_repro;
          case "small hunt finds no violation" test_hunt_clean_within_protection;
          case "simulator crashes surface as shrunk findings"
            test_hunt_surfaces_simulator_crashes;
          case "parallel hunt bit-identical to sequential" test_hunt_parallel_identity;
        ] );
    ]
