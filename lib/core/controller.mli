(** Resilient TE controller: every solve goes through a graceful-degradation
    ladder, and every accepted allocation is spot-audited against the FFC
    guarantees.

    A TE controller must fail {e downward} — through weaker guarantees —
    never silently or late. Each {!step} attempts the configured mode at
    full protection and, on solver failure (infeasibility, iteration limit,
    wall-clock deadline expiry, numeric trouble), descends a ladder:

    + rung 0 — FFC at the requested per-class protection;
    + rungs 1..n — protection degraded one unit per rung ([ke] first, then
      [kv], then [kc], uniformly across classes, which preserves the
      non-increasing-with-priority invariant of {!Priority_te});
    + basic TE (no fault protection, cheapest LP);
    + last-good — the previously installed allocation rescaled down to
      current demands (never increases any link load, always succeeds).

    Every attempt — failed or accepted — is recorded in the returned
    {!step} telemetry, so callers can count fallbacks, deadline hits and
    the rung distribution instead of masking solver failures.

    The always-on sampled auditor re-verifies each accepted allocation on a
    randomized, budget-bounded subset of the {!Enumerate} fault cases at the
    {e effective} (possibly degraded) protection level: per class, the
    no-fault case plus random data-plane cases of up to the class's
    [(ke, kv)] and control-plane cases of up to its [kc]. The basic-TE and
    last-good rungs guarantee nothing under faults, so they are audited on
    the no-fault (capacity + deliverability) case only. *)

type mode =
  | Basic  (** basic TE only (the reactive controller's solve) *)
  | Ffc_ladder of (int -> Ffc.config)
      (** FFC per priority class, degraded rung by rung on failure *)

type config = {
  mode : mode;
  deadline_ms : float option;  (** wall-clock budget per ladder attempt *)
  max_iterations : int option;  (** simplex pivot cap per LP *)
  audit_budget : int;  (** sampled audit cases per accepted solve; 0 = off *)
  audit_seed : int;
}

val config :
  ?deadline_ms:float ->
  ?max_iterations:int ->
  ?audit_budget:int ->
  ?audit_seed:int ->
  mode ->
  config
(** Defaults: no deadline, no iteration cap, audit budget 8. *)

type rung_kind =
  | Full_protection
  | Reduced of int  (** degradation steps applied to every class *)
  | Basic_te
  | Last_good

val rung_label : rung_kind -> string
(** ["full"], ["reduced-<n>"], ["basic-te"], ["last-good"]. *)

type attempt = {
  rung : int;  (** ladder position, 0 = full protection *)
  kind : rung_kind;
  protections : (int * Te_types.protection) list;
      (** per-class protection attempted (empty on basic/last-good rungs) *)
  outcome : (unit, Te_types.solve_failure) result;
  solve_ms : float;  (** wall-clock spent on this attempt *)
  budget_ms : float option;  (** the deadline this attempt ran under *)
}

type audit_report = {
  audit_cases : int;
  audit_violations : int;
  first_violation : string option;
}

type step = {
  alloc : Te_types.allocation;  (** the accepted allocation *)
  rung : int;  (** rung finally accepted *)
  kind : rung_kind;
  label : string;
  attempts : attempt list;  (** chronological; last one is the accepted *)
  fallbacks : int;  (** failed attempts before acceptance *)
  deadline_hits : int;  (** attempts that died on the wall-clock deadline *)
  stale : bool;  (** [true] iff the last-good rung was used *)
  escalated : bool;
      (** [true] iff the reported stale-ingress count exceeded the configured
          kc and the step was solved at a raised kc (see {!step}) *)
  per_class_stats : (int * Ffc.stats) list;
      (** the accepted rung's LP solves: one per priority class on an FFC
          rung, [[(-1, stats)]] on the basic-TE rung (its joint LP, under
          the class [-1] its warm-start basis is cached by), none on the
          last-good rung *)
  audit : audit_report option;  (** [None] iff auditing is disabled *)
}

type t
(** Mutable controller state: the sampled auditor's RNG, warm-start basis
    caches keyed by (rung, priority class) — each rung re-solves from its
    own previous optimum, the closest start for its protection level — and
    the basic-TE rung's LP ({!Basic_te.lp}). That LP is built on the rung's
    first solve and re-solved with each step's demands; it is rebuilt only
    when a step's topology or flow list is not physically the value it was
    built from ({!Basic_te.built_for}), so a caller that passes the same
    network every interval builds it once. The FFC rungs build their LPs
    afresh every step. Lifetime counts live in the [controller.*] Obs
    counters. *)

val create : config -> t
(** A controller with empty basis caches and the audit RNG seeded from
    [config.audit_seed]. *)

val restart : t -> t
(** The controller as it comes back from a crash with its journal: the
    same config and audit RNG, so the sampled-guarantee audit stream
    continues where it stopped instead of replaying the same cases, the
    same basic-TE LP, and empty basis caches. The bases are not kept on
    purpose: they are solver-internal and re-derivable, so the first step
    after a restart cold-starts each rung's LP and repopulates the cache
    instead of carrying simplex internals across the crash. The basic-TE
    LP still holds the solver state of its last solve, but no basis is
    offered to resume it, so the next solve is cold and replaces it. The
    two controllers share the RNG; use only the restarted one. *)

val step :
  t ->
  ?stale:int ->
  ?audit_input:Te_types.input ->
  Te_types.input ->
  prev:Te_types.allocation ->
  step
(** Compute this interval's target allocation, descending the ladder rung
    by rung until one succeeds. Each LP rung warm-starts from its own cached
    bases; only the accepted rung refreshes them, so a rung that failed
    keeps the bases of its last success.

    [prev] is the currently-installed allocation (used for
    control-plane constraints, warm context and the last-good rung; pass
    {!Te_types.zero_allocation} initially). With a southbound engine in the
    loop, [prev] should be the {e mixed} installed allocation (each flow's
    row taken from the allocation its ingress switch actually runs) so the
    control-plane constraints protect against real running configurations.

    [stale] (default 0) is the number of ingress switches currently running
    an old configuration, as reported by the southbound engine. When it
    exceeds the weakest configured kc (over classes with [kc > 0]), the step
    {e escalates}: every kc-protected class is solved at
    [kc = max configured (min stale #ingresses)], so the new target is
    provably safe against the switches that are actually stuck; the step is
    marked [escalated] and its FFC rungs bypass the basis caches, neither
    reading nor refreshing them, so the next normal step still starts from
    the last normal optimum. Never raises on solver failure — the last-good
    rung always succeeds.

    [audit_input] (default: the planning input itself) is the view the
    sampled guarantee auditor verifies the accepted allocation against.
    A controller planning on an {e estimated} view should pass the
    ground-truth input here so audit verdicts are statements about the real
    network, not about the estimate. *)

val step_edge : step -> int * int
(** [(ke, kv)] protection edge actually guaranteed by an accepted step (the
    minimum across classes of the {e effective} protection); [(0, 0)] for
    basic TE and last-good. The reaction rule must use this, not the
    requested protection. *)

val step_kc : step -> int
(** Control-plane protection edge actually guaranteed by an accepted step:
    the minimum [kc] across classes of the effective protection (so a class
    at [kc = 0] caps it at [0]); [0] for basic TE and last-good. The
    southbound kc-guarantee checker must assert at this level, not the
    requested one. *)

val degrade_once : Te_types.protection -> Te_types.protection
(** One ladder step: decrement [ke], else [kv], else [kc]; identity at zero
    protection. *)

val degrade : int -> Te_types.protection -> Te_types.protection
(** [degrade s p] applies {!degrade_once} [s] times. *)

val rescale_last_good :
  Te_types.input -> Te_types.allocation -> Te_types.allocation
(** The last-good rung's transform: cap each flow's rate at its current
    demand and shrink its tunnel allocations proportionally (no link load
    ever increases). *)

val audit_class :
  Ffc_util.Rng.t ->
  budget:int ->
  Te_types.input ->
  prev:Te_types.allocation ->
  alloc:Te_types.allocation ->
  Te_types.protection ->
  audit_report
(** The sampled auditor on one (class-restricted) input: the no-fault case
    first, then up to [budget - 1] random {!Enumerate.check_data_case} /
    {!Enumerate.check_control_case} draws within the protection level. *)
