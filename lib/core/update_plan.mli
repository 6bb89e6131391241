(** Congestion-free multi-step network updates (§5.2, after SWAN/zUpdate).

    A plan is a chain of configurations [A0 -> A1 -> ... -> Am] such that
    every pairwise transition is congestion-free no matter in which order
    switches apply their updates (Eqn 16: each link can hold, for every
    ingress, the larger of its loads in the two adjacent configurations).

    With FFC ([kc > 0]) the plan additionally tolerates switches stuck at
    {e any earlier step}: per link, the [kc] largest "stuck excesses" (the
    worst load the switch could still be imposing from any previous step,
    §5.2's [max(beta^0 .. beta^i)]) also fit. The step can then be taken as
    soon as all but [kc] switches have acknowledged, instead of all of
    them — this is what makes updates fast under configuration faults
    (evaluated in Figure 16). *)

type plan = {
  steps : Te_types.allocation list;
      (** intermediate configurations [A1 .. Am-1]; the endpoints are the
          caller's [from_] and [to_] *)
  min_rate : float array;  (** per-flow rate guaranteed throughout the update *)
}

val plan :
  ?config:Ffc.config ->
  ?steps:int ->
  Te_types.input ->
  from_:Te_types.allocation ->
  to_:Te_types.allocation ->
  (plan, string) result
(** Compute [steps - 1] intermediate configurations (default [steps = 2],
    i.e. one intermediate). Every configuration in the chain carries at
    least [min(b0_f, bm_f)] for each flow. [Error] if no such chain exists
    with the given number of steps (callers may retry with more). Only the
    [kc] component of [config.protection] is used here. *)

val transition_safe :
  Te_types.input -> Te_types.allocation -> Te_types.allocation -> bool
(** Check Eqn 16 for one transition: for every link, the sum over ingresses
    of the max of the two configurations' loads is within capacity. *)

val ingress_loads :
  Formulation.crossing list array ->
  Te_types.allocation ->
  (Ffc_net.Topology.switch * float) list array
(** Per-link, per-ingress load of a concrete allocation: for each link (by
    id), the list of (ingress switch, load it imposes on the link). Takes
    {!Formulation.crossings_by_link} output so callers can amortise the
    crossing computation across allocations. Used by the southbound
    kc-guarantee checker to account mixed-epoch link loads exactly. *)
