(* Tests for the chaos layer: the crash-recovery journal (snapshot/restore
   round-trips for the controller and the southbound engine, version and
   component rejection), correlated fault injection (SRLGs, burst windows,
   stream discipline), the controller availability model in the interval
   simulator, the finite reaction-delay retry timeline, and the adversarial
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

(* Two ingresses feeding a shared sink. *)
let small_input () =
  let topo = Topology.create 3 in
  let a = Topology.add_link topo 0 2 10. in
  let b = Topology.add_link topo 0 1 20. in
  let c = Topology.add_link topo 1 2 20. in
  let f0 =
    Flow.create ~id:0 ~src:0 ~dst:2 [ Tunnel.create ~id:0 [ a ]; Tunnel.create ~id:1 [ b; c ] ]
  in
  let f1 = Flow.create ~id:1 ~src:1 ~dst:2 [ Tunnel.create ~id:2 [ c ] ] in
  { Te_types.topo; flows = [ f0; f1 ]; demands = [| 8.; 2. |] }

(* ------------------------------------------------------------------ *)
(* Journal documents                                                   *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let w = Journal.writer "demo" in
  Journal.put_int w "n" (-42);
  Journal.put_int64 w "state" (-1L);
  Journal.put_float w "x" (-0.1);
  Journal.put_float w "inf" infinity;
  Journal.put_floats w "xs" [| 1.5; nan; 0. |];
  Journal.put_floats w "empty" [||];
  Journal.put_float_rows w "rows" [| [| 1e-300 |]; [| 2.; 3. |] |];
  let doc = Journal.to_string w in
  let r =
    match Journal.expect "demo" (Journal.of_string doc) with
    | Ok r -> r
    | Error e -> Alcotest.failf "journal parse: %s" e
  in
  let get = function Ok v -> v | Error e -> Alcotest.failf "journal get: %s" e in
  Alcotest.(check int) "int" (-42) (get (Journal.get_int r "n"));
  Alcotest.(check int64) "int64" (-1L) (get (Journal.get_int64 r "state"));
  Alcotest.(check (float 0.)) "float exact" (-0.1) (get (Journal.get_float r "x"));
  Alcotest.(check bool) "infinity" true (get (Journal.get_float r "inf") = infinity);
  let xs = get (Journal.get_floats r "xs") in
  Alcotest.(check (float 0.)) "array elt" 1.5 xs.(0);
  Alcotest.(check bool) "nan survives" true (Float.is_nan xs.(1));
  Alcotest.(check int) "empty array" 0 (Array.length (get (Journal.get_floats r "empty")));
  let rows = get (Journal.get_float_rows r "rows") in
  Alcotest.(check (float 0.)) "ragged rows" 1e-300 rows.(0).(0);
  Alcotest.(check (float 0.)) "row 2" 3. rows.(1).(1);
  Alcotest.(check bool) "missing key is Error" true
    (Result.is_error (Journal.get_float r "nope"))

let test_journal_version_mismatch () =
  let w = Journal.writer "demo" in
  Journal.put_int w "n" 1;
  let doc = Journal.to_string w in
  let lines = String.split_on_char '\n' doc in
  let bumped = String.concat "\n" ("ffc-journal 99 demo" :: List.tl lines) in
  Alcotest.(check bool) "future version rejected" true
    (Result.is_error (Journal.of_string bumped));
  Alcotest.(check bool) "wrong component rejected" true
    (Result.is_error (Journal.expect "other" (Journal.of_string doc)))

(* ------------------------------------------------------------------ *)
(* Controller snapshot/restore                                         *)
(* ------------------------------------------------------------------ *)

let ladder_cfg () =
  Controller.config ~audit_budget:4 ~audit_seed:9
    (Controller.Ffc_ladder
       (fun _ ->
         Ffc.config
           ~protection:(Te_types.protection ~kc:1 ~ke:1 ())
           ~encoding:`Duality ~mice_fraction:0. ~ingress_skip_fraction:0. ()))

let test_controller_roundtrip_identity () =
  let cfg = ladder_cfg () in
  let ctrl = Controller.create cfg in
  let input = small_input () in
  let s1 = Controller.step ctrl input ~prev:(Te_types.zero_allocation input) in
  let snap = Controller.snapshot ctrl in
  let ctrl' =
    match Controller.restore cfg snap with
    | Ok c -> c
    | Error e -> Alcotest.failf "controller restore: %s" e
  in
  Alcotest.(check string) "snapshot fixpoint" snap (Controller.snapshot ctrl');
  (* The restored controller continues bit-for-bit: same next step, same
     audit stream, byte-identical snapshots afterwards. *)
  let s2 = Controller.step ctrl input ~prev:s1.Controller.alloc in
  let s2' = Controller.step ctrl' input ~prev:s1.Controller.alloc in
  Alcotest.(check (array (float 1e-9))) "same next allocation" s2.Controller.alloc.Te_types.bf
    s2'.Controller.alloc.Te_types.bf;
  Alcotest.(check int) "same rung" s2.Controller.rung s2'.Controller.rung;
  Alcotest.(check string) "same post-step snapshot" (Controller.snapshot ctrl)
    (Controller.snapshot ctrl')

let test_controller_restore_rejects_garbage () =
  let cfg = ladder_cfg () in
  Alcotest.(check bool) "not a journal" true
    (Result.is_error (Controller.restore cfg "hello"));
  let engine_doc =
    Sim.Southbound.snapshot (Sim.Southbound.create instant_model (small_input ()))
  in
  Alcotest.(check bool) "wrong component" true
    (Result.is_error (Controller.restore cfg engine_doc))

(* ------------------------------------------------------------------ *)
(* Southbound snapshot/restore                                         *)
(* ------------------------------------------------------------------ *)

let test_southbound_roundtrip_continuation () =
  let input = small_input () in
  let model = Sim.Update_model.realistic () in
  let mk_rng () = Rng.create 77 in
  let target = { Te_types.bf = [| 6.; 2. |]; af = [| [| 1.; 5. |]; [| 2. |] |] } in
  let engine = Sim.Southbound.create model input in
  let rng = mk_rng () in
  let _ = Sim.Southbound.push engine rng input ~target ~interval_s:300. in
  let snap = Sim.Southbound.snapshot engine in
  let engine' =
    match Sim.Southbound.restore model input snap with
    | Ok e -> e
    | Error e -> Alcotest.failf "southbound restore: %s" e
  in
  Alcotest.(check string) "snapshot fixpoint" snap (Sim.Southbound.snapshot engine');
  (* Both engines continue from identical state with identical randomness:
     the next push must be byte-identical. *)
  let rng' = Rng.copy rng in
  let target2 = { Te_types.bf = [| 4.; 3. |]; af = [| [| 4.; 0. |]; [| 3. |] |] } in
  let r = Sim.Southbound.push engine rng input ~target:target2 ~interval_s:300. in
  let r' = Sim.Southbound.push engine' rng' input ~target:target2 ~interval_s:300. in
  Alcotest.(check int) "same pushed" r.Sim.Southbound.pushed r'.Sim.Southbound.pushed;
  Alcotest.(check int) "same attempts" r.Sim.Southbound.attempts r'.Sim.Southbound.attempts;
  Alcotest.(check (list int)) "same stale set" r.Sim.Southbound.stale r'.Sim.Southbound.stale;
  Alcotest.(check string) "same post-push snapshot" (Sim.Southbound.snapshot engine)
    (Sim.Southbound.snapshot engine')

let test_southbound_restore_checks_switch_set () =
  let input = small_input () in
  let snap = Sim.Southbound.snapshot (Sim.Southbound.create instant_model input) in
  (* An input with a different ingress set must be rejected. *)
  let topo = Topology.create 2 in
  let l = Topology.add_link topo 1 0 10. in
  let other =
    {
      Te_types.topo;
      flows = [ Flow.create ~id:0 ~src:1 ~dst:0 [ Tunnel.create ~id:0 [ l ] ] ];
      demands = [| 1. |];
    }
  in
  Alcotest.(check bool) "switch-set mismatch rejected" true
    (Result.is_error (Sim.Southbound.restore instant_model other snap))

let test_southbound_restore_checks_allocation_shape () =
  let input = small_input () in
  let snap = Sim.Southbound.snapshot (Sim.Southbound.create instant_model input) in
  (* The same ingresses and flow count, but flow 0 has one tunnel fewer: the
     journal's two-entry row for it must not be restored. *)
  let other =
    match input.Te_types.flows with
    | [ f0; f1 ] ->
      let f0' = Flow.create ~id:0 ~src:0 ~dst:2 [ List.hd f0.Flow.tunnels ] in
      { input with Te_types.flows = [ f0'; f1 ] }
    | _ -> assert false
  in
  Alcotest.(check (result reject string))
    "mis-shaped row rejected, naming the flow"
    (Error "journal: flow 0 has 2 tunnel allocations, input has 1 tunnels")
    (Sim.Southbound.restore instant_model other snap)

(* An engine captured by value is isolated from the live one. After the
   capture the live engine runs on: an in-place write reaches a target row
   it installed, and pushes replace af rows, write bf in place, start an
   outage and advance epochs. The capture's encoding must stay the snapshot
   taken at capture time, byte for byte. *)
let test_southbound_copy_isolated () =
  let input = small_input () in
  let model =
    {
      instant_model with
      Sim.Update_model.config_fail_prob = 0.5;
      outage_prob = 1.;
      outage_duration_s = (fun _ -> 600.);
    }
  in
  let engine = Sim.Southbound.create model input in
  let rng = Rng.create 1 in
  let push bf af =
    Sim.Southbound.push engine rng input ~target:{ Te_types.bf; af } ~interval_s:300.
  in
  let target = { Te_types.bf = [| 6.; 2. |]; af = [| [| 1.; 5. |]; [| 2. |] |] } in
  let first = Sim.Southbound.push engine rng input ~target ~interval_s:300. in
  Alcotest.(check (list int)) "both switches run the first target" [] first.Sim.Southbound.stale;
  Alcotest.(check bool) "the engine holds the target's rows themselves" true
    ((Sim.Southbound.running engine 1).Te_types.af.(1) == target.Te_types.af.(1));
  let captured = Sim.Southbound.copy engine in
  let doc = Sim.Southbound.snapshot engine in
  target.Te_types.af.(1).(0) <- 7.;
  let reports =
    List.init 4 (fun i ->
        let r = float_of_int (i + 2) in
        push [| r; 1. |] [| [| 1.; r |]; [| 1. |] |])
  in
  let some what p = Alcotest.(check bool) what true (List.exists p reports) in
  some "a push landed" (fun r -> r.Sim.Southbound.applied <> []);
  some "a push started an outage" (fun r -> r.Sim.Southbound.outages_started > 0);
  Alcotest.(check bool) "the live engine moved" true (Sim.Southbound.snapshot engine <> doc);
  Alcotest.(check string) "the capture still encodes as at capture time" doc
    (Sim.Southbound.snapshot captured)

(* Journals hold decision state only: the controller's audit RNG, and one
   installed allocation for the whole engine rather than one per switch. *)
let test_journals_hold_decision_state () =
  let keys doc =
    List.filter_map
      (fun line -> Option.map (String.sub line 0) (String.index_opt line ' '))
      (List.tl (String.split_on_char '\n' doc))
  in
  let cdoc = Controller.snapshot (Controller.create (ladder_cfg ())) in
  Alcotest.(check (list string)) "controller keys" [ "audit_rng" ] (keys cdoc);
  let sc = Sim.Scenario.lnet_sim (Rng.create 42) in
  let input = sc.Sim.Scenario.input in
  let target =
    match Basic_te.solve input with Ok a -> a | Error e -> Alcotest.failf "basic TE: %s" e
  in
  let engine = Sim.Southbound.create instant_model input in
  ignore (Sim.Southbound.push engine (Rng.create 1) input ~target ~interval_s:300.);
  let sdoc = Sim.Southbound.snapshot engine in
  let count k = List.length (List.filter (String.equal k) (keys sdoc)) in
  Alcotest.(check (pair int int)) "one bf and one af line" (1, 1) (count "bf", count "af");
  if String.length sdoc >= 5000 then
    Alcotest.failf "L-Net southbound journal is %d bytes" (String.length sdoc)

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
  let stats = Chaos.run_plan crash_plan in
  let flags =
    List.map
      (fun (s : Sim.Interval_sim.interval_stats) ->
        ( s.Sim.Interval_sim.controller_down,
          s.Sim.Interval_sim.recovery_interval,
          s.Sim.Interval_sim.recovered_from_journal ))
      stats
  in
  (* Crash at interval 1 for 400 s: intervals 1 and 2 down (down_until =
     700 s), interval 3 recovers from the journal. *)
  Alcotest.(check (list (triple bool bool bool)))
    "down/recovery/journal flags"
    [
      (false, false, false);
      (true, false, false);
      (true, false, false);
      (false, true, true);
      (false, false, false);
    ]
    flags;
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
      ( "journal",
        [
          case "typed round-trip incl. nan/infinity/empty" test_journal_roundtrip;
          case "version and component mismatches rejected" test_journal_version_mismatch;
        ] );
      ( "controller",
        [
          case "snapshot/restore round-trip, identical continuation"
            test_controller_roundtrip_identity;
          case "garbage and wrong components rejected" test_controller_restore_rejects_garbage;
        ] );
      ( "southbound",
        [
          case "snapshot/restore round-trip, byte-identical push"
            test_southbound_roundtrip_continuation;
          case "switch-set mismatch rejected" test_southbound_restore_checks_switch_set;
          case "mis-shaped allocation rejected" test_southbound_restore_checks_allocation_shape;
          case "a captured engine is isolated from the live one" test_southbound_copy_isolated;
          case "journals hold decision state only" test_journals_hold_decision_state;
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
