(** Traffic demand generation: gravity-model flows, per-interval demand
    series with diurnal variation, and multi-priority splitting (§8.1).

    Demands are indexed by [Flow.id] in flat arrays; a {e series} is one
    demand array per TE interval. *)

type spec = {
  flows : Flow.t list;
  base_demand : float array; (* indexed by flow id; Gbps *)
}

val make_flows :
  ?tunnels_per_flow:int ->
  ?p:int ->
  ?q:int ->
  ?nflows:int ->
  ?allowed:(Topology.switch -> Topology.switch -> bool) ->
  Ffc_util.Rng.t ->
  Topology.t ->
  spec
(** Gravity-model flow set: lognormal site weights, demand of a pair
    proportional to the product of its endpoint weights; the [nflows]
    (default: 2x number of switches) heaviest pairs with [allowed src dst]
    (default: all) become flows, each with up to [tunnels_per_flow] (default
    6, the paper's setting) [(p, q)]-disjoint tunnels (defaults (1, 3)).
    Pairs with fewer than 2 usable tunnels are skipped. Base demands are
    normalised so their sum is 30% of total network link capacity (rescale
    with {!scale} / the simulator's calibration). *)

val series : Ffc_util.Rng.t -> intervals:int -> spec -> float array array
(** [series rng ~intervals spec] produces one demand array per interval:
    base demand x diurnal factor (1 + 0.25 sin, over 288 intervals = 24 h
    of 5-minute intervals, per-flow phase) x lognormal noise (relative
    sigma 0.08 — adjacent 5-minute intervals are similar, as in the paper's
    production traces). *)

val scale : float -> float array -> float array
(** Uniformly scaled copy (the paper's traffic-scale knob: 0.5, 1, 2). *)

val split_priorities :
  fractions:float list -> spec -> spec
(** Replace each flow by one flow per priority class sharing the same
    tunnels, with demands split according to [fractions] (must sum to ~1;
    order = priority 0 = highest first). Flow ids are renumbered densely;
    returned [base_demand] matches. *)

val total : float array -> float
(** Sum of a demand array. *)
