(** Stateful southbound update engine: per-switch configuration epochs,
    retry/timeout/backoff, and live verification of the paper's
    configuration-fault guarantee (§2.2, Eqn 5).

    The fire-and-forget push of the earlier engine assumed every ingress
    switch installs the new target by the next interval. Real control planes
    don't: configuration attempts fail, straggle past timeouts, and some
    failures are persistent outages that keep a switch stale across whole TE
    intervals ({!Update_model.t.outage_prob}). This engine tracks, per
    ingress switch, which configuration {e epoch} it actually runs, pushes
    each new target with bounded retries on the one {!retry_timeline}
    (exponential backoff with jitter, per-attempt timeout, all inside the TE
    interval), and exposes the resulting mixture of installed
    configurations so the data plane and the controller both see the
    truth:

    - {!imposed_mix} — the controller's honest [prev]: enforced rates split
      by each ingress switch's installed weights;
    - {!running} — the installed view, for the data plane's stale-split
      computation ([Rescale.rescale ~old_alloc_of]);
    - {!check_guarantee} — the always-on checker of the FFC configuration
      guarantee: whenever at most [kc] switches are stale, no link may
      exceed capacity under the paper's stuck-switch semantics (new rate
      [b_f] split by old weights), computed with the load model of the
      controller's auditor ({!Ffc_core.Enumerate.stuck_loads}).

    All engine state persists across {!push} calls, so an outage longer
    than one interval yields multi-epoch staleness. All randomness comes
    from the caller's {!Ffc_util.Rng.t}. *)

open Ffc_core

type retry_policy = {
  max_attempts : int;  (** per switch per interval, >= 1 *)
  attempt_timeout_s : float;  (** straggler abandonment threshold *)
  backoff_base_s : float;
  backoff_mult : float;  (** delay n = min(max, base * mult^(n-1)) *)
  backoff_max_s : float;
  jitter : float;
      (** delay is scaled by [1 + jitter * U(0,1)] — desynchronises retries *)
}

val default_retry : retry_policy
(** 6 attempts, 10 s timeout, backoff 1 s doubling capped at 60 s,
    jitter 0.5. *)

val retry_policy :
  ?max_attempts:int ->
  ?attempt_timeout_s:float ->
  ?backoff_base_s:float ->
  ?backoff_mult:float ->
  ?backoff_max_s:float ->
  ?jitter:float ->
  unit ->
  retry_policy
(** {!default_retry} with overrides; validates the fields. *)

type t
(** Mutable engine state: the engine clock and target epoch, each ingress
    switch's epoch and outage deadline, and one installed allocation whose
    row f is the configuration flow f's ingress switch runs. Lifetime
    counts live in the [southbound.*] Obs counters. *)

val create : ?retry:retry_policy -> Update_model.t -> Te_types.input -> t
(** One slot per ingress switch of [input] (epoch 0), every switch running
    the zero allocation — an unconfigured switch blackholes, as in the
    pre-engine semantics. The ingresses are sorted here, once, with an
    index from switch id to slot: every later walk over them (pushes and
    {!stale_switches}) visits them in ascending id order. The engine
    outlives controller crashes (switches keep their configurations when
    the controller dies), so a restarted controller resumes against this
    same engine. *)

type apply_event = {
  switch : Ffc_net.Topology.switch;
  at_s : float;  (** seconds after the interval edge at which it applied *)
  attempts : int;  (** attempts used, >= 1 *)
}

type report = {
  epoch : int;  (** the epoch this push targeted *)
  pushed : int;  (** switches whose installed splits differed from the target *)
  applied : apply_event list;  (** this push's successful installs *)
  stale : Ffc_net.Topology.switch list;
      (** switches running any older epoch after the push (sorted) *)
  max_epoch_lag : int;  (** worst per-switch epoch deficit *)
  attempts : int;
  retries : int;  (** attempts beyond each switch's first *)
  retry_successes : int;
      (** switches that applied after at least one failure/timeout *)
  failures : int;  (** failed attempts (outage-correlated ones included) *)
  timeouts : int;  (** stragglers abandoned + completions past the edge *)
  outages_started : int;
}

type timeline = {
  landed_at : float option;
      (** seconds after the interval edge at which an attempt landed;
          [None] if none did inside the interval *)
  tries : int;  (** attempts made *)
  failed : int;  (** attempts that failed *)
  timed_out : int;
      (** stragglers abandoned at the timeout, plus a completion past the
          interval edge *)
}

val retry_timeline :
  retry_policy ->
  Ffc_util.Rng.t ->
  interval_s:float ->
  (at_s:float -> Update_model.attempt) ->
  timeline
(** One switch's retry timeline within an interval, the only one in the
    simulator: {!push} runs it per switch and the simulator's mid-interval
    reaction per ingress. [attempt ~at_s] makes the attempt that starts
    [at_s] seconds after the edge. A failure is detected at once and backed
    off by [min backoff_max (base * mult^(n-1))], scaled by
    [1 + jitter * U(0,1)] (one draw from the rng when [jitter > 0]); a
    completion slower than the per-attempt timeout is abandoned there and
    backed off the same way. The timeline ends when an attempt lands,
    after [max_attempts] attempts, or at [interval_s]; an attempt that
    completes past [interval_s] has not landed. *)

val push : t -> Ffc_util.Rng.t -> Te_types.input -> target:Te_types.allocation ->
  interval_s:float -> report
(** Advance to the next epoch and push [target] to every switch whose
    installed splits differ (a pure rate change needs no switch update:
    rate limiters live at the hosts). Pushes run concurrently from the
    interval edge, each on its own {!retry_timeline} bounded by
    [interval_s], drawn in ascending switch order; an attempt during a
    control-plane outage fails without a draw, and a fresh failure starts
    an outage with probability {!Update_model.t.outage_prob}. Advances
    the engine clock by [interval_s]. [input] must have the flows of the
    input the engine was created with (its demands may differ). *)

val hold : t -> interval_s:float -> report
(** An interval without a push (the controller is down, or it skipped the
    re-solve): advance the engine clock by [interval_s], then report the
    standing state — the current target epoch, no attempts, the stale
    switches and the worst epoch lag. The network coasts: installed
    splits, epochs and outage deadlines (absolute times) all keep their
    meaning. *)

val running : t -> Ffc_net.Topology.switch -> Te_types.allocation
(** The installed view, for an ingress switch: the rows of the flows the
    switch sources are what it actually runs (the other rows belong to
    other switches). The engine's own allocation, not a copy — valid until
    the next {!push}. [Invalid_argument] if the switch is not an ingress
    of the engine's input. *)

val stale_switches : t -> Ffc_net.Topology.switch list
(** Switches running an older epoch than the current target (sorted). *)

val epoch_lag : t -> Ffc_net.Topology.switch -> int
(** How many epochs the switch runs behind the target. [Invalid_argument]
    if the switch is not an ingress of the engine's input. *)

val imposed_mix : t -> Te_types.input -> rates:float array -> Te_types.allocation
(** The load the network actually imposes: per flow, [rates] (the per-flow
    sending rate the host rate limiters currently enforce — the last
    granted [bf]) split by the ingress switch's installed weights. Feed
    this to {!Controller.step} as [prev]: its link loads are the real
    current loads (so the formulation's §4.5 already-overloaded escape
    fires only when genuinely overloaded) and its weights are the installed
    splits the control-plane constraints must protect against. *)

val force_outage : t -> Ffc_net.Topology.switch -> until_s:float -> unit
(** Test hook: put the switch in outage until the given absolute engine
    time ({!now_s} starts at 0 and advances by [interval_s] per push).
    [Invalid_argument] if the switch is not an ingress of the engine's
    input. *)

val now_s : t -> float

(** {2 kc-guarantee checker} *)

type violation = {
  link : Ffc_net.Topology.link;
  load : float;
  capacity : float;
  stale_set : Ffc_net.Topology.switch list;
}

type verdict =
  | Ok_checked  (** |stale| <= kc and no link over capacity: guarantee holds *)
  | Beyond_budget of Ffc_net.Topology.switch list
      (** more stale switches than the protection level covers — the
          guarantee makes no promise here; escalation territory *)
  | Violation of violation
      (** |stale| <= kc yet a link exceeds capacity: an FFC contract bug *)

val check_guarantee :
  t ->
  ?grandfathered:(int -> bool) ->
  Te_types.input ->
  target:Te_types.allocation ->
  kc:int ->
  verdict
(** Assert Eqn 5 on the live state. With more than [kc] stale switches the
    guarantee makes no promise ([Beyond_budget]). Otherwise the loads are
    the auditor's control-plane case ({!Ffc_core.Enumerate.stuck_loads}) on
    the engine's installed weights (as {!running}): each stale ingress
    splits the {e new} rate by its {e old} weights, everyone else is charged
    [target]'s tunnel allocations. The verdict names the first link, in id
    order, over capacity by more than the auditor's 1e-6 tolerance
    ({!Ffc_core.Enumerate.first_overloaded}). [kc] must be the {e effective}
    protection level ({!Controller.step_kc}), not the requested one.
    [grandfathered] (by link id; default none) marks links that were
    already over capacity before this target was computed — the
    formulation grants those unprotected moves (§4.5), so the checker skips
    them. The aggregate
    load comparison coincides with the paper's per-class guarantee when
    all flows share one priority class; with multiple classes the
    deliberate headroom sharing of §5.1 means a within-budget aggregate
    overload is paid by the lowest class, which this checker would flag
    conservatively. *)

val pp_verdict : Format.formatter -> verdict -> unit
