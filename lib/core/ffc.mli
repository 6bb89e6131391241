(** The FFC TE solver (§4): computes allocations guaranteed congestion-free
    under any combination of up to [kc] switch-configuration faults, [ke]
    link failures and [kv] switch failures, using the bounded M-sum
    reduction and sorting-network (or duality) encodings.

    Fault semantics encoded here:
    - control plane (§4.2): a faulted ingress switch keeps its old splitting
      weights while rate limiters apply the new rates, so tunnel [t] of flow
      [f] may carry up to [beta_{f,t} = max (w'_{f,t} * b_f) a_{f,t}]
      (Eqn 8); with ordered rate-limiter protection (§5.5, Eqn 18) also
      [>= a'_{f,t}];
    - data plane (§4.3): ingresses rescale onto residual tunnels, so the
      [tau_f] smallest tunnel allocations must cover [b_f] (Eqn 15), with
      [tau_f = |T_f| - ke p_f - kv q_f]; flows with [tau_f <= 0] are shut.

    Paper §6 optimisations are implemented and configurable: ingresses with
    negligible old load on a link are skipped, mice flows get fixed
    equal-split allocations, and links already overloaded in the old
    configuration get unprotected moves ([kc = 0] on that link, §4.5). *)

type rl_mode =
  | Rl_assumed_reliable  (** Eqn 8: rate limiter updates always succeed *)
  | Rl_ordered  (** §5.5 Eqn 18: ordered switch/limiter updates ([beta >= max(a', a)]) *)

type config = {
  protection : Te_types.protection;
  encoding : Ffc_sortnet.Bounded_sum.encoding;
  rl_mode : rl_mode;
  mice_fraction : float;
      (** flows carrying collectively at most this fraction of demand are
          "mice" and get fixed equal-split allocations (§6); default 0.01 *)
  ingress_skip_fraction : float;
      (** ignore ingresses whose old load on a link is below this fraction
          of capacity (§6); default 1e-5 (the paper's 0.001%). An
          approximation the paper accepts: a skipped ingress that gets stuck
          can still push its link past capacity by up to its old load, so
          Eqn 5 can fail by that much (DESIGN §4: on default L-Net at
          scale 1.0, two steps of 30 by about 2e-4 Gbps). The exact
          configurations (the CLI, the oracles, the edge benchmark) set it,
          and [mice_fraction], to 0. *)
  rescale_aware : bool;
      (** This repository's extension beyond the paper. The paper's combined
          formulation (§4.5) bounds a stuck ingress by [beta = max(w' b, a)],
          but when data-plane faults kill some of that ingress's tunnels it
          rescales its OLD weights, so a surviving tunnel can carry up to
          [w'_t b / (1 - D_f)] ([D_f] = worst old-weight mass on tunnels
          that up to [ke p + kv q] faults can kill) — exhaustive
          verification shows the paper's encoding misses such combined
          cases. Setting this flag amplifies the [w' b] bound by that
          per-flow constant, making the simultaneous (kc, ke, kv) guarantee
          hold. Default [false] (paper-faithful). *)
}

val config :
  ?protection:Te_types.protection ->
  ?encoding:Ffc_sortnet.Bounded_sum.encoding ->
  ?rl_mode:rl_mode ->
  ?mice_fraction:float ->
  ?ingress_skip_fraction:float ->
  ?rescale_aware:bool ->
  unit ->
  config
(** Defaults: no protection, sorting-network encoding, reliable rate
    limiters, paper-faithful (non-rescale-aware) combined protection. *)

type stats = Formulation.stats = {
  lp_vars : int;
  lp_rows : int;
  build_ms : float;
  solve_ms : float;
  solver : Ffc_lp.Problem.solver_stats option;
}
(** The dimensions, wall-clock split and solver instrumentation of one
    solve; see {!Formulation.stats}. *)

type result = {
  alloc : Te_types.allocation;
  stats : stats;
  basis : Ffc_lp.Problem.basis;
      (** final simplex basis; feed to the next [solve ?warm_start] of the
          same formulation (e.g. the following TE interval) *)
}

(** {2 Constraint builders}

    Exposed so formulation variants (the §5.4 MLU objective, §5.5 rate
    limiter analysis, fairness iterations) can reuse the FFC constraint
    machinery on their own models. *)

val data_plane_constraints : config -> Formulation.vars -> Te_types.input -> unit
(** Eqn 15 (plus mice equal-split and [tau <= 0] shutdown) for the config's
    [ke]/[kv]. No-op when both are 0. *)

val control_plane_constraints :
  config ->
  Formulation.vars ->
  Te_types.input ->
  prev:Te_types.allocation ->
  ?prev2:Te_types.allocation ->
  ?uncertain_flows:int list ->
  rhs:(Ffc_net.Topology.link -> Ffc_lp.Expr.t) ->
  unit ->
  unit
(** Eqn 14 per link, with a caller-supplied right-hand side (the residual
    capacity in {!build}, [uf * c_e] for MLU, a capacity variable for
    capacity planning). Add it only when [kc > 0]: with [kc = 0] it still
    adds the [beta] rows and a plain capacity row per link. *)

val build :
  ?config:config ->
  ?prev:Te_types.allocation ->
  ?prev2:Te_types.allocation ->
  ?uncertain_flows:int list ->
  ?reserved:float array ->
  Te_types.input ->
  Formulation.vars
(** Build the model with all FFC constraints but no objective — the hook
    used by {!Fairness} and other objective variants. Raises
    [Invalid_argument] if [kc > 0] and no [prev] is given, or if
    [uncertain_flows] is non-empty without [prev] and [prev2] (§5.6). *)

val solve :
  ?config:config ->
  ?prev:Te_types.allocation ->
  ?prev2:Te_types.allocation ->
  ?uncertain_flows:int list ->
  ?reserved:float array ->
  ?presolve:bool ->
  ?warm_start:Ffc_lp.Problem.basis ->
  Te_types.input ->
  (result, string) Stdlib.result
(** [build] + maximise throughput + extract, timing model construction and
    the solve separately (monotonic wall clock). [prev] is the
    currently-installed allocation (required when [protection.kc > 0]);
    [uncertain_flows] (with [prev2]) marks flows whose last update was
    unconfirmed (§5.6): their configuration is frozen and planned for either
    of the last two states. [warm_start] seeds the revised simplex with the
    [basis] of a previous solve of the same formulation, typically the
    previous interval's. The §4.5 and §6 rules, mice flows and presolve make
    the row set depend on the data and on [prev]; the basis is mapped onto
    this build by the formulation's stable keys ({!Formulation.scope_vars}
    and siblings), and the solver repairs what the mapping leaves
    inconsistent (see {!Ffc_lp.Problem.solver_stats}). *)

val solve_checked :
  ?config:config ->
  ?prev:Te_types.allocation ->
  ?prev2:Te_types.allocation ->
  ?uncertain_flows:int list ->
  ?reserved:float array ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Ffc_lp.Problem.basis ->
  Te_types.input ->
  (result, Te_types.solve_failure) Stdlib.result
(** Like {!solve} but failures carry a machine-readable
    {!Te_types.failure_kind} (so the degradation ladder in {!Controller} can
    distinguish deadline expiry and iteration limits from infeasibility),
    and the underlying LP solve can be bounded by [max_iterations] pivots
    and/or a [deadline_ms] wall-clock budget that the model build counts
    against. Solver failures read ["FFC TE: <what> (<reason>)"] (see
    {!Formulation.solve}); an [Invalid_argument] from {!build} (including
    a negative or NaN demand, see {!Formulation.make_vars}) is returned as
    an [`Infeasible] failure carrying its message. *)
