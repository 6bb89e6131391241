(** Data-plane fault semantics shared by the verifier and the simulator:
    proportional rescaling at ingress switches (§2.1) and the traffic mix
    under stuck-switch control-plane faults (§2.2). *)

open Ffc_net

type rates = {
  tunnel_rates : float array array;
      (** per flow id, per tunnel position; 0 on dead tunnels *)
  undeliverable : float array;
      (** per flow id: rate that cannot be delivered at all (no residual
          tunnel with positive weight, or failed endpoint) *)
}

val rescale :
  Te_types.input ->
  Te_types.allocation ->
  ?stuck:(Topology.switch -> bool) ->
  ?old_alloc_of:(Topology.switch -> Te_types.allocation) ->
  failed_links:(int -> bool) ->
  failed_switches:(Topology.switch -> bool) ->
  unit ->
  rates
(** Traffic actually emitted per tunnel: each flow sends [b_f] split over
    its residual tunnels proportionally to its installed weights. Installed
    weights are the new allocation's, except at [stuck] ingresses (default
    none), where [old_alloc_of v] gives the allocation switch [v] still
    runs: per switch when stale ingresses may lag different numbers of
    configuration epochs, [fun _ -> old] for one shared old allocation. A
    stuck ingress without [old_alloc_of] is an [Invalid_argument]. Flows whose
    ingress/egress switch failed send nothing (counted undeliverable, since
    the source is gone this is excluded from loss accounting by callers that
    follow the paper). *)

val loads : Te_types.input -> float array array -> float array
(** Per-link load implied by concrete tunnel rates. *)

val overflow : Te_types.input -> float array -> float
(** Total load above capacity, summed over links (Gbps): the instantaneous
    congestion-loss rate of the paper's loss metric. *)
