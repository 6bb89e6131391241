(** The TE-interval event loop (§8.1/§8.3/§8.4).

    Each 5-minute interval: compute a TE target (reactive basic TE, or
    proactive FFC per priority class) against the {e installed} mixture
    reported by the stateful {!Southbound} engine, push it through that
    engine (bounded retries with backoff; failures may be persistent
    outages, leaving switches stale across epochs) — or, while the
    controller is down or skips a re-solve, hold the standing
    configuration — then check the live kc guarantee and play out randomly
    injected data-plane faults as a piecewise-constant timeline of tunnel
    rates:

    - a fault blackholes the traffic on its tunnels until detection +
      notification, then ingresses rescale;
    - a reactive controller recomputes and re-updates after every fault; a
      proactive (FFC) one only at the edge of its protection level;
    - congestion loss is priority-queue-aware traffic above capacity, for
      as long as the oversubscription lasts.

    Faults are repaired between intervals; unsatisfied demand carries over
    to the next interval's demand (lost bytes are not re-offered — see
    EXPERIMENTS.md for the deviations list). All randomness flows from the
    caller's {!Ffc_util.Rng.t}. *)

type mode =
  | Reactive  (** non-FFC: basic TE + reaction to every fault *)
  | Proactive of (int -> Ffc_core.Ffc.config)
      (** FFC configuration per priority class *)

(** {2 Controller availability}

    The TE controller itself can crash. While it is down no interval step
    runs: the hosts keep enforcing the last granted rates, the switches keep
    their installed splits, and the network {e coasts} on that standing
    mixture while demands drift and data-plane faults keep arriving (same
    fault stream, so timelines stay identical across recovery strategies) —
    with nobody reacting. On restart the controller either resumes from its
    crash-recovery journal or boots cold: the network state survives either
    way, but a cold controller is {e blind} on its recovery interval — it
    plans from a zero previous allocation and an assumed-clean switch fleet
    until the push reports re-sync its view.

    The simulator models the journal by the state it would hold, not by a
    serialized copy: the switches' configurations live in the {!Southbound}
    engine, which the crash does not touch, and the controller's
    guarantee-relevant state is its audit RNG, which nothing draws from
    while it is down. A {!Journaled_restart} therefore resumes the crashed
    controller ({!Ffc_core.Controller.restart}: the same audit stream,
    empty warm-start caches), provided a step completed before the crash.
    A crash before the first up interval leaves nothing to journal, so that
    restart boots cold. *)

type recovery =
  | Cold_restart  (** fresh controller, blind recovery interval *)
  | Journaled_restart
      (** resume from the journal of the last up interval (cold if no
          step completed before the crash) *)

type outage_model = {
  crash_per_interval : float;
      (** probability an up controller crashes at a given interval edge,
          for a lognormal downtime of median 600 s (two intervals) and
          shape 0.6 *)
  forced_crashes : (int * float) list;
      (** [(interval, downtime_s)]: deterministic crashes, taking precedence
          over the random process for that interval (and consuming no
          randomness — bench arms can impose identical crash timing) *)
  recovery : recovery;
}

val controller_outage :
  ?crash_per_interval:float ->
  ?forced_crashes:(int * float) list ->
  recovery ->
  outage_model
(** Validated constructor. Defaults: no random crashes, no forced
    crashes. *)

val compute_s : float
(** Controller TE computation time when reacting to a fault: 500 ms. A
    reaction also waits 5 ms for detection and 50 ms for notification. *)

type config = {
  mode : mode;
  interval_s : float;
  update_model : Update_model.t;
  fault_model : Fault_model.t;
  forced_faults : (Ffc_util.Rng.t -> int -> Fault_model.fault list) option;
      (** overrides random sampling (Figure 1 experiments); called with the
          interval index *)
  deadline_ms : float option;
      (** wall-clock budget per controller ladder attempt (see
          {!Ffc_core.Controller}); [None] = unbounded *)
  max_iterations : int option;  (** simplex pivot cap per LP; [None] = unbounded *)
  audit_budget : int;
      (** sampled guarantee-audit cases per accepted solve; [0] disables *)
  retry : Southbound.retry_policy;
      (** southbound push retry/timeout/backoff parameters *)
  outage : outage_model option;
      (** controller crash process; [None] = an always-up controller *)
  telemetry : Telemetry.config;
      (** the sensing channel the controller's view passes through;
          {!Telemetry.neutral} (lossless, undelayed, noiseless) with
          {!Ffc_core.Estimator.passthrough} is perfect sensing: the
          controller plans on the true demands *)
  estimator : Ffc_core.Estimator.config;
      (** demand estimation over the sensed reports;
          {!Ffc_core.Estimator.passthrough} plans on the last report (no
          headroom, no damping, no dead band) *)
}

val default_config :
  ?deadline_ms:float ->
  ?max_iterations:int ->
  ?audit_budget:int ->
  ?retry:Southbound.retry_policy ->
  ?outage:outage_model ->
  ?telemetry:Telemetry.config ->
  ?estimator:Ffc_core.Estimator.config ->
  mode:mode ->
  update_model:Update_model.t ->
  Fault_model.t ->
  config
(** 300 s intervals, no solve deadline, audit budget 8,
    {!Southbound.default_retry}, no controller outages, perfect sensing
    ({!Telemetry.neutral} and {!Ffc_core.Estimator.passthrough}). *)

type gt_verdict =
  | Gt_ok
      (** the planned allocation survives the interval's {e actual} fault
          set on the real network ({!Ffc_core.Enumerate.check_data_case}) *)
  | Gt_not_asserted
      (** the case lies outside what the accepted rung certified: stale
          switches, grandfathered (pre-overloaded, §4.5) links, faults
          beyond the delivered (ke, kv) edge, or a down controller *)
  | Gt_violation of string  (** a broken promise — should never happen *)

type class_stats = {
  offered_gb : float;  (** demand x interval, gigabits *)
  granted_gb : float;  (** admitted rate x interval *)
  delivered_gb : float;  (** granted minus losses *)
  lost_congestion_gb : float;
  lost_blackhole_gb : float;
}

type interval_stats = {
  per_class : class_stats array;
  max_oversub_pct : float;
  control_faults : int;
  data_faults : int;
  reacted : bool;
  solver_fallbacks : int;
      (** failed ladder attempts before this interval's target was accepted *)
  rung : int;  (** degradation-ladder rung accepted (0 = full protection) *)
  rung_label : string;  (** e.g. ["full"], ["reduced-2"], ["last-good"] *)
  deadline_hits : int;  (** attempts killed by the wall-clock deadline *)
  stale_alloc : bool;
      (** [true] iff the interval ran on the previous allocation rescaled to
          current demands (the ladder's last rung) — never silently *)
  audit_cases : int;  (** sampled guarantee checks run on the accepted solve *)
  audit_violations : int;  (** checks that failed (should be zero) *)
  ladder : Ffc_core.Controller.attempt list;
      (** full per-attempt telemetry, chronological *)
  southbound : Southbound.report;
      (** this interval's push report: attempts, retries, stale set *)
  kc_verdict : Southbound.verdict;
      (** live configuration-fault guarantee check on the post-push state *)
  kc_checked : int;
      (** the effective kc the verdict was asserted at
          ({!Ffc_core.Controller.step_kc}) *)
  escalated : bool;
      (** [true] iff the controller solved at a raised kc because more
          ingresses were stale than the configured protection covers *)
  controller_down : bool;
      (** [true] iff the controller was down this interval: no step ran, the
          network coasted on the standing mixture ([rung] is [-1],
          [rung_label] is ["controller-down"], and [kc_verdict] re-asserts
          the standing configuration at the last delivered kc) *)
  recovered_from_journal : bool;
      (** [true] iff this interval's controller resumed from the
          crash-recovery journal (first up interval after a downtime under
          {!Journaled_restart}, once a step has completed) *)
  recovery_interval : bool;
      (** [true] iff this is the first up interval after a downtime
          (whichever recovery strategy) *)
  view_staleness : int;
      (** max intervals since any flow's demand report last got through
          (0 = fresh view, and always 0 under perfect sensing) *)
  suspect_links : int;
      (** fibres charged against ke this interval without a confirmed
          failure (missed keepalives, late fault notifications) *)
  suspect_switches : int;  (** same, against kv *)
  estimation_err : float;
      (** mean relative divergence of the planning demands from ground
          truth ({!Ffc_core.Estimator.mean_rel_error}); headroom counts as
          divergence *)
  solve_skipped : bool;
      (** [true] iff the dead-band hysteresis skipped this interval's
          re-solve and push ([rung_label] is ["dead-band-skip"]; the
          standing target stayed installed) *)
  gt_data : gt_verdict;
      (** ground-truth data-plane verdict for this interval's actual
          faults, checked against the {e real} network even when the
          controller planned on an estimated view *)
}

val total_lost : interval_stats -> float
val total_delivered : interval_stats -> float

val stats_json_line : interval_stats -> string
(** One interval as a single-line JSON object (no trailing newline): the
    machine-readable twin of the human table, used by
    [ffc simulate --stats-json] to emit JSON lines that bench/CI can diff
    mechanically. Floats are printed with full precision. *)

val reaction_delay : Ffc_util.Rng.t -> config -> int -> float
(** Latency of a corrective mid-interval update across [n] ingresses:
    [compute_s] plus the slowest ingress's landing time, each ingress on
    {!Southbound.retry_timeline} under [config.retry] with attempts drawn
    from [config.update_model] (without the engine's persistent outages).
    Always at most [compute_s + interval_s]: an ingress that never lands
    inside the interval, including one whose attempt completes past the
    edge, pins its completion at the interval end — the next interval's
    re-plan supersedes it. Exposed for testing. *)

val run :
  rng:Ffc_util.Rng.t ->
  config ->
  Ffc_core.Te_types.input ->
  demand_series:float array array ->
  interval_stats list
(** Run the engine over the series; [input.demands] is ignored in favour of
    the series (plus carry-over). *)
