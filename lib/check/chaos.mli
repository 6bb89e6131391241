(** Adversarial guarantee hunter: searches fault sequences and controller
    crash timings — all {e within} the configured protection level — for
    violations of the FFC contract in the full interval simulator.

    A {!plan} is a deterministic chaos schedule: a small L-Net-like scenario
    plus forced data-plane faults (at most [ke] distinct fibres and [kv]
    distinct switches per interval, enforced at execution time), optionally
    one controller crash with a journaled restart, and
    optionally a degraded sensing plane (lossy/delayed/noisy telemetry with
    the robust estimator on, see {!Ffc_sim.Telemetry}). {!test} runs
    {!Ffc_sim.Interval_sim} over the plan and fails iff the simulated
    system breaks a promise it actually made:

    - ["guarantee:"] — the live kc-guarantee checker reports a
      {!Ffc_sim.Southbound.Violation} (within-budget staleness overloading
      a link);
    - ["audit:"] — the controller's sampled guarantee audit catches a
      violated fault case on an accepted solve;
    - ["groundtruth:"] — the ground-truth data-plane verdict
      ({!Ffc_sim.Interval_sim.gt_data}) finds a planned allocation that
      breaks the Eqn-5/9 guarantee against {e true} demands while actual
      faults stayed within the delivered budget — the check a lossy sensing
      plane must not be able to defeat;
    - ["congestion:"] — congestion loss on a full-protection interval whose
      faults were within the data-plane budget, with a clean (never-stale)
      control plane — FFC promises zero congestion loss there;
    - ["conservation:"] — an interval loses more traffic than it granted;
    - ["crash:"] — the simulator or solver stack raised.

    Plans are valid by construction under shrinking: element indices are
    taken modulo the scenario's fibre/switch counts, and over-budget or
    out-of-range faults are dropped, so the shrinker can remove sites,
    intervals and faults freely while preserving the failure category (see
    {!Fuzz.minimise}).

    {!hunt} drives the search: random restarts plus greedy hill-climbing on
    a badness score (congestion + blackhole loss, peak oversubscription,
    near-miss staleness), shrinking the first failing plan to a minimal
    runnable repro. *)

type elem =
  | Fibre of int  (** index into {!Ffc_net.Topology.fibres}, taken mod *)
  | Switch of int  (** index into the switch list, taken mod *)

type fault_spec = {
  fs_interval : int;
  fs_time : float;  (** fraction of the interval, clamped to [0, 1] *)
  fs_elem : elem;
}

type crash_spec = {
  cr_interval : int;  (** interval edge at which the controller dies *)
  cr_downtime : float;
      (** seconds; a journaled restart at the next edge after (cold if no
          step completed before the crash) *)
}

type tele_spec = {
  t_loss : float;  (** telemetry report/notification loss, clamped to [0, 0.9] *)
  t_delay : int;  (** fault-notification delay in intervals *)
  t_noise : float;  (** multiplicative demand-report noise sigma *)
}

type plan = {
  p_seed : int;  (** scenario topology/traffic and simulator streams *)
  p_sites : int;  (** L-Net-like scenario size (>= 3) *)
  p_intervals : int;
  p_scale : float;  (** traffic scale *)
  p_kc : int;
  p_ke : int;
  p_kv : int;
  p_realistic : bool;  (** realistic (vs optimistic) southbound update model *)
  p_faults : fault_spec list;
  p_crash : crash_spec option;
  p_telemetry : tele_spec option;
      (** [Some _] runs the controller behind a lossy sensing plane (robust
          estimator with headroom 0.2, dead-band 0.02) *)
}

val run_plan_hook : (plan -> unit) ref
(** Test hook invoked with the plan at the start of every {!run_plan};
    regression tests force a raise here to prove simulator crashes surface
    as shrunk ["crash:"] findings. Defaults to a no-op — reset it after
    use. *)

val run_plan : plan -> Ffc_sim.Interval_sim.interval_stats list
(** Execute the plan (deterministic in the plan alone). *)

val test : plan -> Fuzz.verdict
(** The oracle property above. Does not catch exceptions — wrap in
    {!Fuzz.run_test} to map crashes to ["crash:"] findings. *)

val score : Ffc_sim.Interval_sim.interval_stats list -> float
(** Badness of a run: loss, peak oversubscription and beyond-budget
    staleness. The hunter climbs this; violations trump it. *)

val generate : Ffc_util.Rng.t -> plan
(** Random plan for the fuzzing harness (random small protection levels). *)

val shrink : plan -> plan list
val repro : plan -> string
(** {!Fuzz.repro_program} of the plan: its record literal (floats in
    bit-exact [%h]) judged by [Ffc_check.Chaos.test]. *)

val oracle : unit -> Fuzz.oracle
(** The ["chaos"] oracle. Not part of {!Oracles.all} — one instance costs a
    multi-interval simulation, so it would starve the cheap oracles under a
    shared fuzz time budget; select it explicitly ({!Oracles.available}) or
    drive it through {!hunt}. *)

type finding = {
  c_plan : plan;  (** the originally failing plan *)
  c_message : string;
  c_min_plan : plan;  (** shrunk, same failure category *)
  c_min_message : string;
  c_shrink_steps : int;
  c_repro : string;  (** {!repro} of [c_min_plan] *)
}

type hunt_report = {
  h_evaluated : int;  (** simulator runs spent *)
  h_best_score : float;  (** best badness reached without a violation *)
  h_finding : finding option;
}

val hunt :
  ?pool:Ffc_util.Pool.t ->
  ?seed:int ->
  ?budget:int ->
  ?sites:int ->
  ?intervals:int ->
  ?scale:float ->
  ?realistic:bool ->
  ?telemetry:bool ->
  kc:int ->
  ke:int ->
  kv:int ->
  unit ->
  hunt_report
(** Search for a guarantee violation at a fixed protection level: random
    restarts, each followed by greedy mutation steps (add/move faults, move
    the crash, degrade/re-roll the sensing plane, nudge the traffic scale)
    keeping the higher-scoring plan; stops at the first failure (shrunk
    before reporting) or when [budget] simulator runs are exhausted.
    [telemetry] (default false) seeds each restart with a ~50% chance of a
    random lossy sensing plane; the mutation step may introduce or clear one
    either way. Defaults: seed 42, budget 48, 4 sites, 6 intervals, scale
    1.2, optimistic update model.

    Each restart draws from its own split of the master stream — a pure
    function of (seed, restart index) — and owns a fixed slice of the
    budget. Restarts run in chunks of the pool's size (one at a time
    without [pool]), and no chunk starts after one that found a violation,
    so the report (first finding by restart index, evaluation count, best
    score over the same prefix) is the same at any pool size. A crash
    inside the simulator is converted into a ["crash:"] finding — shrunk
    like any other — never silently scored. *)

val write_repro : string -> seed:int -> finding -> unit
(** [write_repro path ~seed f] writes [f]'s repro to [path] behind a
    comment naming the hunt seed and the minimal message: a runnable
    [CHAOS_repro.ml]. *)

val pp_report : Format.formatter -> hunt_report -> unit
