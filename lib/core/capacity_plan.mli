(** The paper's §3.3 second use case, left unexplored there: for a given
    traffic demand and protection level, compute the link capacities needed
    to guarantee freedom from fault-induced congestion.

    Capacities become LP variables: minimise the total capacity subject
    to the full FFC constraint system with every demand
    carried in full ([b_f = d_f]). The result tells an operator exactly how
    much provisioning a protection level costs — today they over-provision
    by a blanket factor "and even that does not provide any guarantee"
    (§3.3). *)

type result = {
  capacities : float array; (* required capacity per link id *)
  alloc : Te_types.allocation; (* a witness allocation achieving them *)
  total_capacity : float; (* sum of [capacities] *)
  stats : Ffc.stats;
}

val solve :
  ?config:Ffc.config ->
  ?prev:Te_types.allocation ->
  Te_types.input ->
  (result, string) Stdlib.result
(** Minimise total link capacity (every link weighs 1; none has a floor).
    Existing capacities in the topology are ignored by the optimisation
    — this computes what they {e should} be — though the §6/§4.5 heuristics
    still consult them for skip thresholds, so prefer
    [~ingress_skip_fraction:0.] in [config] when planning. [prev] is
    required when [config.protection.kc > 0] (protection is planned against
    updates from that configuration). *)

val provisioning_factor : Te_types.input -> result -> float
(** [total required capacity / capacity needed without protection]: the
    over-provisioning multiple the protection level demands. Computed
    against a [no_protection] plan of the same input. *)
