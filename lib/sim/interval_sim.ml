open Ffc_net
open Ffc_core
module Rng = Ffc_util.Rng
module Obs = Ffc_obs.Obs

let m_intervals = Obs.counter "interval.count"
let m_down = Obs.counter "interval.controller_down"
let m_recoveries = Obs.counter "interval.recoveries"
let m_skips = Obs.counter "interval.dead_band_skips"
let m_data_faults = Obs.counter "interval.data_faults"
let m_control_faults = Obs.counter "interval.control_faults"
let m_reactions = Obs.counter "interval.reactions"
let m_audit_cases = Obs.counter "interval.audit_cases"
let m_audit_violations = Obs.counter "interval.audit_violations"
let m_gt_violations = Obs.counter "interval.gt_violations"
let m_lost_gb = Obs.histogram "interval.lost_gb"
let m_oversub = Obs.histogram "interval.max_oversub_pct"
let m_est_err = Obs.histogram "interval.estimation_err"

type mode = Reactive | Proactive of (int -> Ffc.config)

type recovery = Cold_restart | Journaled_restart

type outage_model = {
  crash_per_interval : float;
  forced_crashes : (int * float) list;
  recovery : recovery;
}

let controller_outage ?(crash_per_interval = 0.) ?(forced_crashes = []) recovery =
  if crash_per_interval < 0. || crash_per_interval > 1. then
    invalid_arg "Interval_sim.controller_outage: crash_per_interval outside [0, 1]";
  List.iter
    (fun (i, d) ->
      if i < 0 then invalid_arg "Interval_sim.controller_outage: negative interval";
      if d <= 0. then invalid_arg "Interval_sim.controller_outage: downtime <= 0")
    forced_crashes;
  { crash_per_interval; forced_crashes; recovery }

(* The lognormal downtime of a random crash, by median (two intervals)
   and shape. *)
let downtime_median_s = 600.
let downtime_sigma = 0.6

(* Reaction timing: fault detection, controller notification, and the
   controller's TE computation. *)
let detect_s = 0.005
let notify_s = 0.05
let compute_s = 0.5

type config = {
  mode : mode;
  interval_s : float;
  update_model : Update_model.t;
  fault_model : Fault_model.t;
  forced_faults : (Rng.t -> int -> Fault_model.fault list) option;
  deadline_ms : float option;
  max_iterations : int option;
  audit_budget : int;
  retry : Southbound.retry_policy;
  outage : outage_model option;
  telemetry : Telemetry.config;
  estimator : Estimator.config;
}

let default_config ?deadline_ms ?max_iterations ?(audit_budget = 8)
    ?(retry = Southbound.default_retry) ?outage ?(telemetry = Telemetry.neutral)
    ?(estimator = Estimator.passthrough) ~mode ~update_model fault_model =
  {
    mode;
    interval_s = 300.;
    update_model;
    fault_model;
    forced_faults = None;
    deadline_ms;
    max_iterations;
    audit_budget;
    retry;
    outage;
    telemetry;
    estimator;
  }

type class_stats = {
  offered_gb : float;
  granted_gb : float;
  delivered_gb : float;
  lost_congestion_gb : float;
  lost_blackhole_gb : float;
}

(* Ground-truth data-plane verdict: after the interval's actual fault set
   is known, re-check the planned allocation against the real network
   (Enumerate's per-case verifier) — asserted only when the case lies in
   the space the accepted rung certified: a clean control plane, no
   grandfathered (pre-overloaded, §4.5) links, and the failed directed
   link ids / switches within the delivered (ke, kv) edge. *)
type gt_verdict = Gt_ok | Gt_not_asserted | Gt_violation of string

type interval_stats = {
  per_class : class_stats array;
  max_oversub_pct : float;
  control_faults : int;
  data_faults : int;
  reacted : bool;
  solver_fallbacks : int;
  rung : int;
  rung_label : string;
  deadline_hits : int;
  stale_alloc : bool;
  audit_cases : int;
  audit_violations : int;
  ladder : Controller.attempt list;
  southbound : Southbound.report;
  kc_verdict : Southbound.verdict;
  kc_checked : int;
  escalated : bool;
  controller_down : bool;
  recovered_from_journal : bool;
  recovery_interval : bool;
  view_staleness : int;
  suspect_links : int;
  suspect_switches : int;
  estimation_err : float;
  solve_skipped : bool;
  gt_data : gt_verdict;
}

let total_lost s =
  Array.fold_left
    (fun acc c -> acc +. c.lost_congestion_gb +. c.lost_blackhole_gb)
    0. s.per_class

(* One interval as a JSON-lines record, for `ffc simulate --stats-json`:
   the machine-readable twin of the human table, so bench/CI can diff two
   runs field by field. Printed compactly by [Ffc_util.Json], the one JSON
   writer, which also prints the Obs exports and (through bench's [report])
   every BENCH artifact; its %.17g floats round-trip exactly. *)
let stats_json_line (s : interval_stats) =
  let open Ffc_util.Json in
  let sb = s.southbound in
  let class_json c =
    Obj
      [
        ("offered_gb", Float c.offered_gb); ("granted_gb", Float c.granted_gb);
        ("delivered_gb", Float c.delivered_gb); ("lost_congestion_gb", Float c.lost_congestion_gb);
        ("lost_blackhole_gb", Float c.lost_blackhole_gb);
      ]
  in
  let kc_verdict =
    match s.kc_verdict with
    | Southbound.Ok_checked -> [ ("kc_verdict", String "ok") ]
    | Southbound.Beyond_budget l ->
      [ ("kc_verdict", String "beyond_budget"); ("kc_beyond", Int (List.length l)) ]
    | Southbound.Violation v ->
      [
        ("kc_verdict", String "violation");
        ( "kc_violation",
          Obj
            [
              ("link", Int v.Southbound.link.Topology.id); ("load", Float v.Southbound.load);
              ("capacity", Float v.Southbound.capacity);
            ] );
      ]
  in
  let gt_data =
    match s.gt_data with
    | Gt_ok -> [ ("gt_data", String "ok") ]
    | Gt_not_asserted -> [ ("gt_data", String "not_asserted") ]
    | Gt_violation m -> [ ("gt_data", String "violation"); ("gt_message", String m) ]
  in
  to_string
    (Obj
       ([
          ("per_class", List (Array.to_list (Array.map class_json s.per_class)));
          ("max_oversub_pct", Float s.max_oversub_pct); ("control_faults", Int s.control_faults);
          ("data_faults", Int s.data_faults); ("reacted", Bool s.reacted);
          ("solver_fallbacks", Int s.solver_fallbacks); ("rung", Int s.rung);
          ("rung_label", String s.rung_label); ("deadline_hits", Int s.deadline_hits);
          ("stale_alloc", Bool s.stale_alloc); ("audit_cases", Int s.audit_cases);
          ("audit_violations", Int s.audit_violations);
          ( "southbound",
            Obj
              [
                ("epoch", Int sb.Southbound.epoch); ("pushed", Int sb.Southbound.pushed);
                ("applied", Int (List.length sb.Southbound.applied));
                ("stale", Int (List.length sb.Southbound.stale));
                ("max_epoch_lag", Int sb.Southbound.max_epoch_lag);
                ("attempts", Int sb.Southbound.attempts); ("retries", Int sb.Southbound.retries);
                ("retry_successes", Int sb.Southbound.retry_successes);
                ("failures", Int sb.Southbound.failures); ("timeouts", Int sb.Southbound.timeouts);
                ("outages_started", Int sb.Southbound.outages_started);
              ] );
        ]
       @ kc_verdict
       @ [
           ("kc_checked", Int s.kc_checked); ("escalated", Bool s.escalated);
           ("controller_down", Bool s.controller_down);
           ("recovered_from_journal", Bool s.recovered_from_journal);
           ("recovery_interval", Bool s.recovery_interval);
           ("view_staleness", Int s.view_staleness); ("suspect_links", Int s.suspect_links);
           ("suspect_switches", Int s.suspect_switches); ("estimation_err", Float s.estimation_err);
           ("solve_skipped", Bool s.solve_skipped);
         ]
       @ gt_data))

let total_delivered s = Array.fold_left (fun acc c -> acc +. c.delivered_gb) 0. s.per_class

(* The TE target now always comes from the resilient controller: solver
   failures descend its degradation ladder (and end, at worst, at the
   previous allocation rescaled to current demands) instead of being
   silently swallowed; every fallback is surfaced in [interval_stats]. The
   controller also carries the per-(rung, class) warm-start basis caches —
   successive intervals re-solve the same formulation with perturbed
   demands, so warm-starting from the last optimal basis cuts iterations. *)
let controller_config cfg seed =
  let mode =
    match cfg.mode with
    | Reactive -> Controller.Basic
    | Proactive config_of -> Controller.Ffc_ladder config_of
  in
  Controller.config ?deadline_ms:cfg.deadline_ms ?max_iterations:cfg.max_iterations
    ~audit_budget:cfg.audit_budget ~audit_seed:seed mode

(* Reaction latency of the corrective mid-interval update: each ingress runs
   the southbound engine's retry timeline on the update stream (without the
   engine's outage process), and the correction is effective once the
   slowest ingress lands. An ingress that never lands inside the interval
   pins the completion at the interval end — the next interval's re-plan
   supersedes it. *)
let reaction_delay rng cfg n_switches =
  let worst = ref 0. in
  for _ = 1 to max 1 n_switches do
    let tl =
      Southbound.retry_timeline cfg.retry rng ~interval_s:cfg.interval_s (fun ~at_s:_ ->
          Update_model.attempt_update rng cfg.update_model)
    in
    worst := max !worst (Option.value tl.Southbound.landed_at ~default:cfg.interval_s)
  done;
  compute_s +. !worst

(* How an interval got its target: the one thing intervals differ in. *)
type source =
  | Coast  (** the controller is down: the network coasts, nobody reacts *)
  | Reuse of Controller.step
      (** dead-band skip: the last solve's target stays installed *)
  | Solve of Controller.step

(* An interval's target and what became of it at the interval edge.
   Everything after — the kc check, faults, play, verdicts and accounting
   — is one tail shared by every source. *)
type plan = {
  source : source;
  target : Te_types.allocation;  (** what the network is told to run *)
  kc : int;  (** the effective kc [target] is asserted at *)
  edge : int * int;  (** the (ke, kv) protection [target] was delivered at *)
  report : Southbound.report;  (** the push, or the standing state if none *)
}

(* The simulator's state between intervals. *)
type state = {
  mutable ctrl : Controller.t;
  engine : Southbound.t;
      (** the per-switch installed state (epochs, outages); it survives
          controller crashes *)
  mutable enforced_bf : float array;
      (** per-flow rates the host rate limiters enforce (they always
          update, even when a switch's splits do not — §2.2) *)
  backlog : float array;  (** unsatisfied demand carried to the next interval *)
  mutable down_until : float;  (** absolute time the controller is down until *)
  mutable was_down : bool;
  mutable last_kc : int;
      (** effective kc of the standing target: the level the coasting
          network's configuration was last verified at *)
  mutable last_solve : (float array * Controller.step) option;
      (** the planning view and step of the last actual solve, which a
          dead-band skip reuses *)
}

let run ~rng cfg (input : Te_types.input) ~demand_series =
  (* Independent sub-streams so that the injected fault sequence is
     identical across TE modes run from the same seed (the mode only
     changes how many update/reaction samples are drawn). The chaos stream
     is split last, after the original three, so fault/update/audit
     timelines from a given seed are unchanged by the availability layer. *)
  let fault_rng = Rng.split rng in
  let update_rng = Rng.split rng in
  let audit_rng = Rng.split rng in
  let chaos_rng = Rng.split rng in
  (* The telemetry stream is split last, after the other four: a lossy
     sensing plane must not move the fault/update/audit/chaos timelines a
     seed produces, and at neutral telemetry parameters the stream itself
     consumes no draws (see {!Telemetry}). *)
  let telemetry_rng = Rng.split rng in
  let nflows = Array.length input.Te_types.demands in
  let nclasses = Loss.num_classes input in
  let links = Topology.links input.Te_types.topo in
  let ningresses = List.length (Enumerate.control_fault_universe input) in
  (* --- sensing (neutral by default: the controller sees truth) --- *)
  let tele = Telemetry.create cfg.telemetry in
  let est = Estimator.create cfg.estimator ~nflows in
  let ccfg = controller_config cfg (Rng.int audit_rng 0x3FFFFFFF) in
  let st =
    {
      ctrl = Controller.create ccfg;
      engine = Southbound.create ~retry:cfg.retry cfg.update_model input;
      enforced_bf = Array.make nflows 0.;
      backlog = Array.make nflows 0.;
      down_until = neg_infinity;
      was_down = false;
      last_kc = 0;
      last_solve = None;
    }
  in
  (* Play one interval's fault timeline against fixed [target] splits.
     [react = None] means the controller is down: faults still blackhole and
     ingresses still rescale locally (data-plane mechanisms), but no
     corrective update is ever scheduled. Returns the per-class losses, the
     peak oversubscription and whether a correction was scheduled. *)
  let play input_t ~target ~stuck_set ~react faults =
    let failed_links = Hashtbl.create 8 and failed_switches = Hashtbl.create 4 in
    let is_failed_link l = Hashtbl.mem failed_links l in
    let is_failed_switch v = Hashtbl.mem failed_switches v in
    let current_rates () =
      Rescale.rescale input_t target ~stuck:stuck_set
        ~old_alloc_of:(Southbound.running st.engine)
        ~failed_links:is_failed_link ~failed_switches:is_failed_switch ()
    in
    let lost_congestion = Array.make nclasses 0. in
    let lost_blackhole = Array.make nclasses 0. in
    let max_oversub = ref 0. in
    let reacted = ref false in
    let cum_link_faults = ref 0 and cum_switch_faults = ref 0 in
    (* Time at which the controller's corrective update lands (congestion
       assumed cleared from then until the next fault). *)
    let reaction_done = ref infinity in
    let schedule_reaction now =
      reacted := true;
      let d = reaction_delay update_rng cfg ningresses in
      let at = now +. detect_s +. notify_s +. d in
      reaction_done := min at cfg.interval_s
    in
    let rates = ref (current_rates ()) in
    (* Control-plane faults: if the mix congests, a reactive (or
       beyond-protection) controller fixes it after a reaction delay. *)
    (match react with
    | None -> ()
    | Some _ ->
      let initial_congestion =
        Array.fold_left ( +. ) 0. (Loss.congestion_rates input_t !rates.Rescale.tunnel_rates)
      in
      if initial_congestion > 1e-9 then schedule_reaction 0.);
    (* Accrue loss over [t0, t1) for the current rates; congestion and
       undeliverable traffic stop at [reaction_done]. *)
    let accrue t0 t1 =
      if t1 > t0 then begin
        let lossy_until = min t1 (max t0 !reaction_done) in
        let lossy_dur =
          if !reaction_done >= t1 then t1 -. t0
          else if !reaction_done <= t0 then 0.
          else lossy_until -. t0
        in
        if lossy_dur > 0. then begin
          let cong = Loss.congestion_rates input_t !rates.Rescale.tunnel_rates in
          Array.iteri
            (fun cls c -> lost_congestion.(cls) <- lost_congestion.(cls) +. (c *. lossy_dur))
            cong;
          let undeliv =
            Loss.class_rate input_t (fun f -> !rates.Rescale.undeliverable.(f))
          in
          Array.iteri
            (fun cls u -> lost_blackhole.(cls) <- lost_blackhole.(cls) +. (u *. lossy_dur))
            undeliv;
          max_oversub :=
            max !max_oversub
              (Loss.max_oversubscription input_t !rates.Rescale.tunnel_rates)
        end
      end
    in
    let cursor = ref 0. in
    List.iter
      (fun (fault : Fault_model.fault) ->
        let t = min fault.Fault_model.time_s cfg.interval_s in
        accrue !cursor t;
        cursor := t;
        (* Blackhole burst: traffic on the newly-dead tunnels until the
           ingresses rescale. *)
        let newly_dead l v =
          match fault.Fault_model.kind with
          | Fault_model.Link_down ids -> List.mem l ids && not (is_failed_link l)
          | Fault_model.Switch_down s -> v = s
        in
        let burst = Array.make nclasses 0. in
        List.iter
          (fun (f : Flow.t) ->
            let id = f.Flow.id in
            List.iteri
              (fun ti (tn : Tunnel.t) ->
                let r = !rates.Rescale.tunnel_rates.(id).(ti) in
                if
                  r > 0.
                  && List.exists
                       (fun (l : Topology.link) ->
                         newly_dead l.Topology.id l.Topology.src
                         || newly_dead l.Topology.id l.Topology.dst)
                       tn.Tunnel.links
                then burst.(f.Flow.priority) <- burst.(f.Flow.priority) +. r)
              f.Flow.tunnels)
          input.Te_types.flows;
        let burst_dur = min (detect_s +. notify_s) (cfg.interval_s -. t) in
        Array.iteri
          (fun cls b -> lost_blackhole.(cls) <- lost_blackhole.(cls) +. (b *. burst_dur))
          burst;
        (* Apply the fault and rescale. *)
        (match fault.Fault_model.kind with
        | Fault_model.Link_down ids ->
          incr cum_link_faults;
          List.iter (fun l -> Hashtbl.replace failed_links l ()) ids
        | Fault_model.Switch_down v ->
          incr cum_switch_faults;
          Hashtbl.replace failed_switches v ());
        rates := current_rates ();
        (* React at the edge of protection (§8.1): a reactive controller on
           every fault; a proactive one once cumulative faults reach the
           smallest protection level of any class (or on any fault of an
           unprotected kind). A down controller never reacts. *)
        let must_react =
          match react with
          | None -> false
          | Some (edge_ke, edge_kv) -> (
            match cfg.mode with
            | Reactive -> true
            | Proactive _ ->
              !cum_link_faults >= max 1 edge_ke || !cum_switch_faults >= max 1 edge_kv)
        in
        if must_react then schedule_reaction t)
      faults;
    accrue !cursor cfg.interval_s;
    (lost_congestion, lost_blackhole, !max_oversub, !reacted)
  in
  let sample_faults interval_idx =
    match cfg.forced_faults with
    | Some gen -> gen fault_rng interval_idx
    | None ->
      Fault_model.sample fault_rng ~interval_s:cfg.interval_s input.Te_types.topo
        cfg.fault_model
  in
  (* What the hosts actually send: the planned grant capped at the true
     demand. Under perfect sensing the LP's demand constraints already keep
     bf <= demand, but a controller planning on an inflated envelope can
     grant more than a flow has to send — the excess must not be charged as
     granted (or played) traffic. The relative guard leaves an LP
     solution's feasibility slack (bf over demand by a rounding hair)
     untouched, so under perfect sensing the grant is sent as planned. *)
  let cap_allocation (input_t : Te_types.input) (alloc : Te_types.allocation) =
    let d = input_t.Te_types.demands in
    let needs_cap = ref false in
    Array.iteri
      (fun f b -> if b > (d.(f) *. (1. +. 1e-9)) +. 1e-12 then needs_cap := true)
      alloc.Te_types.bf;
    if not !needs_cap then alloc
    else begin
      let bf = Array.mapi (fun f b -> min b (max 0. d.(f))) alloc.Te_types.bf in
      let af =
        Array.mapi
          (fun f row ->
            let ob = alloc.Te_types.bf.(f) in
            if ob <= 1e-12 || bf.(f) >= ob then Array.copy row
            else
              let s = bf.(f) /. ob in
              Array.map (fun a -> a *. s) row)
          alloc.Te_types.af
      in
      { Te_types.bf; af }
    end
  in
  (* Ground-truth data-plane verdict for the interval's actual fault set
     (see {!gt_verdict}): the certified case space counts failed directed
     link ids against ke — a whole-fibre cut consumes one id per
     direction. *)
  let gt_verdict_of (input_t : Te_types.input) ~target ~faults ~stale ~any_grandfathered
      ~edge:(eke, ekv) =
    let failed_links =
      List.sort_uniq compare
        (List.concat_map
           (fun (f : Fault_model.fault) ->
             match f.Fault_model.kind with
             | Fault_model.Link_down ids -> ids
             | Fault_model.Switch_down _ -> [])
           faults)
    in
    let failed_switches =
      List.sort_uniq compare
        (List.filter_map
           (fun (f : Fault_model.fault) ->
             match f.Fault_model.kind with
             | Fault_model.Switch_down v -> Some v
             | Fault_model.Link_down _ -> None)
           faults)
    in
    if
      stale <> [] || any_grandfathered
      || List.length failed_links > eke
      || List.length failed_switches > ekv
    then Gt_not_asserted
    else
      match Enumerate.check_data_case input_t target ~failed_links ~failed_switches with
      | Ok () -> Gt_ok
      | Error m -> Gt_violation m
  in
  let class_totals input_t ~demands ~granted_of lost_congestion lost_blackhole =
    let offered = Loss.class_rate input_t (fun f -> demands.(f)) in
    let granted = Loss.class_rate input_t granted_of in
    Array.init nclasses (fun cls ->
        let granted_gb = granted.(cls) *. cfg.interval_s in
        let lost = lost_congestion.(cls) +. lost_blackhole.(cls) in
        {
          offered_gb = offered.(cls) *. cfg.interval_s;
          granted_gb;
          delivered_gb = max 0. (granted_gb -. lost);
          lost_congestion_gb = lost_congestion.(cls);
          lost_blackhole_gb = lost_blackhole.(cls);
        })
  in
  (* Crash process: a forced crash for this interval takes precedence (and
     consumes no randomness, so bench arms can impose identical crash
     timing); otherwise an up controller crashes with the configured
     per-interval probability, for a lognormal downtime. Crashes land at
     the interval edge — any positive downtime takes out at least the
     current interval's step. *)
  let crash interval_idx t_start =
    match cfg.outage with
    | Some om when t_start +. 1e-9 >= st.down_until -> (
      let downtime =
        match List.assoc_opt interval_idx om.forced_crashes with
        | Some d -> Some d
        | None ->
          if om.crash_per_interval > 0. && Rng.bernoulli chaos_rng om.crash_per_interval then
            Some
              (Rng.lognormal chaos_rng ~mu:(log downtime_median_s) ~sigma:downtime_sigma)
          else None
      in
      match downtime with Some d -> st.down_until <- t_start +. d | None -> ())
    | _ -> ()
  in
  (* Restart. Switches do not forget their configs when the controller
     dies, so the engine is the live network either way. A journaled
     controller resumes from the state its journal would hold, which is
     what it held when it crashed: nothing touches a down controller. A
     crash before the first completed step leaves no journal, so that
     restart, like every cold one, boots a blind controller. Returns
     whether the journal was used. *)
  let restart interval_idx =
    match (cfg.outage, st.last_solve) with
    | Some { recovery = Journaled_restart; _ }, Some _ ->
      st.ctrl <- Controller.restart st.ctrl;
      Obs.event ~level:Obs.Debug "interval.journal_restored"
        [ ("interval", Obs.Int interval_idx) ];
      true
    | _ ->
      st.ctrl <- Controller.create ccfg;
      Obs.event ~level:Obs.Debug "interval.cold_restart" [ ("interval", Obs.Int interval_idx) ];
      false
  in
  (* The sensing round: the planning view, suspect link and switch counts,
     view staleness and estimation error. A recovering controller resyncs
     against the real network before planning again — queued stale news
     and suspicions are void, the demand view snaps to an exact
     measurement. *)
  let sense interval_idx ~recovery demands =
    let suspect_links, suspect_switches, view_staleness =
      if recovery then begin
        Telemetry.reconcile tele;
        Estimator.observe_exact est demands;
        (0, 0, 0)
      end
      else begin
        Telemetry.begin_interval tele telemetry_rng ~interval:interval_idx
          input.Te_types.topo;
        Estimator.observe est (Telemetry.observe_demands tele telemetry_rng demands);
        let sl, sv = Telemetry.suspect_counts tele in
        (sl, sv, Estimator.staleness est)
      end
    in
    let view = Estimator.envelope est in
    ( view,
      suspect_links,
      suspect_switches,
      view_staleness,
      Estimator.mean_rel_error ~view ~truth:demands )
  in
  (* Decide where the interval's target comes from, then push it — or, with
     nothing new to install, hold the standing configuration. *)
  let decide ~down ~recovery ~recovered input_t ~real_prev ~view =
    let hold () = Southbound.hold st.engine ~interval_s:cfg.interval_s in
    let of_step source (step : Controller.step) report =
      {
        source;
        target = step.Controller.alloc;
        kc = Controller.step_kc step;
        edge = Controller.step_edge step;
        report;
      }
    in
    if down then
      (* No step, no push: hosts keep enforcing the last granted rates,
         switches keep their installed splits, and the network coasts on
         that standing mixture, at the last verified kc, while demands
         drift. *)
      { source = Coast; target = real_prev; kc = st.last_kc; edge = (0, 0); report = hold () }
    else begin
      (* Staleness feedback: the controller solves against what the network
         actually imposes (enforced rates split by installed weights), and
         escalates kc when more ingresses are stale than the configured
         protection covers. A cold-restarted controller is blind on its
         recovery interval: no journal means no record of the installed
         state, so it plans from a zero previous allocation and an
         assumed-clean switch fleet (from the next interval the push
         reports have re-synced its view). *)
      let blind = recovery && not recovered in
      let stale_before =
        if blind then 0 else List.length (Southbound.stale_switches st.engine)
      in
      match st.last_solve with
      | Some (last, step)
        when stale_before = 0 && (not recovery)
             && Estimator.within_dead_band cfg.estimator ~view ~last ->
        (* Dead-band hysteresis: the estimated view barely moved since the
           last solve, so the controller skips the re-solve and the push.
           Guarantee-safe: the installed allocation's fault certificates do
           not depend on the demand values, and the kc check is re-asserted
           against the live engine. *)
        of_step (Reuse step) step (hold ())
      | _ ->
        (* The controller plans on its (possibly estimated) view; the
           sampled guarantee auditor is pointed at ground truth, so audit
           verdicts stay statements about the real network. *)
        let step =
          Controller.step st.ctrl ~stale:stale_before ~audit_input:input_t
            { input_t with Te_types.demands = view }
            ~prev:(if blind then Te_types.zero_allocation input_t else real_prev)
        in
        st.last_solve <- Some (Array.copy view, step);
        of_step (Solve step) step
          (Southbound.push st.engine update_rng input_t ~target:step.Controller.alloc
             ~interval_s:cfg.interval_s)
    end
  in
  let interval interval_idx base_demands =
    let t_start = float_of_int interval_idx *. cfg.interval_s in
    crash interval_idx t_start;
    let down = t_start +. 1e-9 < st.down_until in
    let recovery = (not down) && st.was_down in
    st.was_down <- down;
    let recovered = recovery && restart interval_idx in
    let demands =
      Array.init nflows (fun f -> base_demands.(f) +. (st.backlog.(f) /. cfg.interval_s))
    in
    let input_t = { input with Te_types.demands } in
    (* What the network actually imposes right now, and which links were
       already overloaded before any new target (those get unprotected
       moves from the formulation, §4.5, so the live checker skips exactly
       those). Always computed from the real engine — even a blind
       controller is judged against the network's true state. *)
    let real_prev = Southbound.imposed_mix st.engine input_t ~rates:st.enforced_bf in
    let prev_loads = Te_types.link_loads input_t real_prev in
    let grandfathered lid = prev_loads.(lid) > links.(lid).Topology.capacity +. 1e-6 in
    (* Nobody is listening while the controller is down: the view freezes
       (no reports consumed, no suspicion raised). *)
    let view, suspect_links, suspect_switches, view_staleness, estimation_err =
      if down then (demands, 0, 0, Estimator.staleness est, 0.)
      else sense interval_idx ~recovery demands
    in
    let plan = decide ~down ~recovery ~recovered input_t ~real_prev ~view in
    let { target; kc; edge; report; _ } = plan in
    (* Live configuration-fault guarantee check on the post-push state. *)
    let kc_verdict =
      Southbound.check_guarantee st.engine ~grandfathered input_t ~target ~kc
    in
    st.last_kc <- kc;
    let faults = sample_faults interval_idx in
    if not down then Telemetry.note_faults tele telemetry_rng ~interval:interval_idx faults;
    let stale = report.Southbound.stale in
    let sent, (lost_congestion, lost_blackhole, max_oversub, reacted), gt_data =
      if down then
        (* Faults still arrive (same fault stream — timelines stay
           identical across recovery strategies) but nobody reacts, and no
           ground-truth assertion is made for the coasted configuration. *)
        ( target,
          play input_t ~target ~stuck_set:(fun _ -> false) ~react:None faults,
          Gt_not_asserted )
      else begin
        let sent = cap_allocation input_t target in
        (* Reaction rule uses the protection the controller actually
           delivered, further tightened by suspect elements, which are
           charged against the budget before confirmation. *)
        let eke, ekv = edge in
        let react_edge = (max 0 (eke - suspect_links), max 0 (ekv - suspect_switches)) in
        let any_grandfathered =
          Array.exists (fun (l : Topology.link) -> grandfathered l.Topology.id) links
        in
        ( sent,
          play input_t ~target:sent
            ~stuck_set:(fun v -> List.mem v stale)
            ~react:(Some react_edge) faults,
          gt_verdict_of input_t ~target ~faults ~stale ~any_grandfathered ~edge )
      end
    in
    st.enforced_bf <- sent.Te_types.bf;
    Array.iteri
      (fun f d -> st.backlog.(f) <- max 0. ((d -. sent.Te_types.bf.(f)) *. cfg.interval_s))
      demands;
    let step = match plan.source with Solve step -> Some step | Coast | Reuse _ -> None in
    let rung, rung_label, stale_alloc =
      match plan.source with
      | Coast -> (-1, "controller-down", true)
      | Reuse step -> (step.Controller.rung, "dead-band-skip", false)
      | Solve step -> (step.Controller.rung, step.Controller.label, step.Controller.stale)
    in
    let of_step f default = match step with Some s -> f s | None -> default in
    let audit_cases, audit_violations =
      match Option.bind step (fun s -> s.Controller.audit) with
      | Some a -> (a.Controller.audit_cases, a.Controller.audit_violations)
      | None -> (0, 0)
    in
    {
      per_class =
        class_totals input_t ~demands
          ~granted_of:(fun f -> sent.Te_types.bf.(f))
          lost_congestion lost_blackhole;
      max_oversub_pct = max_oversub;
      control_faults = List.length stale;
      data_faults = List.length faults;
      reacted;
      solver_fallbacks = of_step (fun s -> s.Controller.fallbacks) 0;
      rung;
      rung_label;
      deadline_hits = of_step (fun s -> s.Controller.deadline_hits) 0;
      stale_alloc;
      audit_cases;
      audit_violations;
      ladder = of_step (fun s -> s.Controller.attempts) [];
      southbound = report;
      kc_verdict;
      kc_checked = kc;
      escalated = of_step (fun s -> s.Controller.escalated) false;
      controller_down = down;
      recovered_from_journal = recovered;
      recovery_interval = recovery;
      view_staleness;
      suspect_links;
      suspect_switches;
      estimation_err;
      solve_skipped = (match plan.source with Reuse _ -> true | Coast | Solve _ -> false);
      gt_data;
    }
  in
  let stats =
    Array.to_list
      (Array.mapi
         (fun interval_idx base_demands ->
           Obs.with_span "interval" (fun () -> interval interval_idx base_demands))
         demand_series)
  in
  if Obs.enabled () then
    List.iter
      (fun s ->
        Obs.incr m_intervals;
        if s.controller_down then Obs.incr m_down;
        if s.recovery_interval then Obs.incr m_recoveries;
        if s.solve_skipped then Obs.incr m_skips;
        Obs.add m_data_faults (float_of_int s.data_faults);
        Obs.add m_control_faults (float_of_int s.control_faults);
        if s.reacted then Obs.incr m_reactions;
        Obs.add m_audit_cases (float_of_int s.audit_cases);
        Obs.add m_audit_violations (float_of_int s.audit_violations);
        (match s.gt_data with Gt_violation _ -> Obs.incr m_gt_violations | _ -> ());
        Obs.observe m_lost_gb (total_lost s);
        Obs.observe m_oversub s.max_oversub_pct;
        Obs.observe m_est_err s.estimation_err)
      stats;
  stats
