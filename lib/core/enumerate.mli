(** Explicit fault-case enumeration: the paper's naive FFC formulation
    (Eqns 5 and 9), used (a) as a semantic oracle to validate the compact
    sorting-network formulation on small instances, (b) to reproduce the
    Table 2 observation that the naive formulation blows up, and (c) to
    {e verify} that a computed allocation really is congestion-free under
    every fault case up to a protection level.

    Everything here is exponential in [k]; callers must keep instances
    small (the constraint-count functions let them check first). *)

val subsets_upto : 'a list -> int -> 'a list list
(** All subsets of size [<= k], including the empty set. *)

val control_constraint_count : Te_types.input -> kc:int -> int
(** Number of explicit constraints Eqn 5 requires: per link, every fault
    case over the ingresses contributing to it. *)

val data_constraint_count : Te_types.input -> ke:int -> kv:int -> int
(** Number of explicit constraints Eqn 9 requires across flows. *)

val solve :
  ?rl_mode:Ffc.rl_mode ->
  protection:Te_types.protection ->
  ?prev:Te_types.allocation ->
  ?reserved:float array ->
  Te_types.input ->
  (Ffc.result, string) result
(** Solve FFC TE with the fully enumerated constraints. Exact Eqn 5 / Eqn 9
    semantics: for data-plane faults this can be (weakly) better than the
    compact Eqn 15 relaxation, and must coincide when tunnels are
    link-disjoint with [kv = 0]. *)

(** {2 Allocation verification} *)

val data_fault_universe : Te_types.input -> int list * Ffc_net.Topology.switch list
(** The (link ids, switches) the data-plane verifier enumerates over: every
    link any tunnel crosses, and every switch. Exposed so a sampled auditor
    can draw random fault cases from the same universe. *)

val control_fault_universe : Te_types.input -> Ffc_net.Topology.switch list
(** The ingress switches the control-plane verifier enumerates over. *)

val stuck_loads :
  Te_types.input ->
  old_alloc:Te_types.allocation ->
  new_alloc:Te_types.allocation ->
  stuck:Ffc_net.Topology.switch list ->
  float array
(** Per-link loads of one control-plane fault case, the model of Eqn 5:
    flows at [stuck] ingresses split the new rate [b_f] by [old_alloc]'s
    weights (host rate limiters update even when switches do not); all
    others are charged their planned upper bounds [a_{f,t}], which
    dominate any split of [b_f] they may install. *)

val first_failure : ('a -> (unit, string) result) -> 'a list -> (unit, string) result
(** [first_failure check cases] runs [check] over [cases] in order and
    returns the first [Error], or [Ok ()]: the one case loop of every
    exhaustive verifier. Nested calls walk a cross product of case lists
    without building it. *)

val first_overloaded :
  ?skip:(int -> bool) -> Te_types.input -> float array -> Ffc_net.Topology.link option
(** The first link, in id order, whose load exceeds its capacity by more
    than the verifiers' 1e-6 tolerance, ignoring links whose id [skip]
    marks (default none): the scan behind every verdict in this module. *)

val check_data_case :
  Te_types.input ->
  Te_types.allocation ->
  failed_links:int list ->
  failed_switches:Ffc_net.Topology.switch list ->
  (unit, string) result
(** One data-plane fault case of {!verify_data_plane}: rescale onto residual
    tunnels, then check for blackholed flows (failed endpoints excluded) and
    overloaded links. *)

val check_control_case :
  Te_types.input ->
  old_alloc:Te_types.allocation ->
  new_alloc:Te_types.allocation ->
  stuck:Ffc_net.Topology.switch list ->
  (unit, string) result
(** One control-plane fault case of {!verify_control_plane}. *)

val verify_data_plane :
  Te_types.input -> Te_types.allocation -> ke:int -> kv:int -> (unit, string) result
(** Simulate every fault case of up to [ke] link and [kv] switch failures:
    ingresses rescale [b_f] onto residual tunnels proportionally to
    [a_{f,t}]; flows with no residual tunnels (or failed endpoints) send
    nothing. [Error] describes the first overloaded link found. *)

val verify_control_plane :
  Te_types.input ->
  old_alloc:Te_types.allocation ->
  new_alloc:Te_types.allocation ->
  kc:int ->
  (unit, string) result
(** Simulate every set of up to [kc] stuck ingress switches: stuck flows
    split the new rate [b_f] by the old weights; others are charged their
    planned upper bounds [a_{f,t}]. *)

val verify_combined :
  Te_types.input ->
  old_alloc:Te_types.allocation ->
  new_alloc:Te_types.allocation ->
  protection:Te_types.protection ->
  (unit, string) result
(** §4.5 combined guarantee: every simultaneous combination of up to [kc]
    stuck ingresses, [ke] link failures and [kv] switch failures leaves the
    network congestion-free after rescaling (stuck ingresses rescale with
    their old weights). Exponential in the protection levels — small
    instances only. *)
