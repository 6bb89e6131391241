(** Data-plane fault injection (§8.1).

    Physical faults take down whole fibres (both directions of a duplex
    link) or whole switches. Rates are calibrated to the paper's L-Net
    observation — {e "a link fails every 30 minutes on average"}
    network-wide — scaled to the topology at hand. Faults are sampled per
    5-minute TE interval and repaired by the next interval (the TE interval
    re-plans on the full topology; see DESIGN.md). *)

open Ffc_net

type kind =
  | Link_down of int list  (** ids of all directed links of the failed fibre *)
  | Switch_down of Topology.switch

type fault = { time_s : float; kind : kind }

type t = {
  link_fail_per_interval : float;
      (** probability that any given fibre fails during one interval *)
  switch_fail_per_interval : float;
  srlgs : int list list;
      (** shared-risk link groups beyond the implicit per-fibre ones: each
          group lists directed link ids that fail together (a conduit cut
          severing several fibres at once) *)
  srlg_fail_per_interval : float;
      (** probability that any given shared-risk group is cut during one
          interval *)
  burst_prob : float;
      (** probability that an interval is a {e burst window} — a maintenance
          accident or weather event during which every failure probability
          is multiplied by [burst_factor] (capped at 1). [0.] disables
          bursts and consumes no randomness. *)
  burst_factor : float;  (** conditional elevation during a burst, >= 1 *)
}

val independent :
  link_fail_per_interval:float -> switch_fail_per_interval:float -> t
(** A purely independent model: no shared-risk groups, no bursts. *)

val lnet_like : Topology.t -> t
(** One link failure per 30 min network-wide (one per 6 intervals), switch
    failures 20x rarer, scaled by the number of fibres/switches.
    Independent faults only — layer correlation on with {!correlated}. *)

val none : t

val correlated :
  ?srlgs:int list list ->
  ?srlg_fail_per_interval:float ->
  ?burst_prob:float ->
  ?burst_factor:float ->
  t ->
  t
(** Layer correlated-failure structure onto an existing model. Validates
    the fields (probabilities in [0, 1], factor >= 1, no empty group).
    Adding correlation changes the random stream only where the new
    features actually draw — a model with [burst_prob = 0.] and no SRLGs
    samples bit-identical timelines to one built before these features
    existed. *)

val random_srlgs :
  Ffc_util.Rng.t -> Topology.t -> groups:int -> width:int -> int list list
(** [groups] random shared-risk groups, each the union of [width] distinct
    fibres ({!Ffc_net.Topology.fibres}; a shared conduit cut) — for
    experiments that want correlated structure without hand-picking
    fibres. *)

val sample : Ffc_util.Rng.t -> interval_s:float -> Topology.t -> t -> fault list
(** Random faults for one interval, sorted by time and {!dedup}ed: one
    draw per fibre ({!Ffc_net.Topology.fibres} order), then per switch,
    then per shared-risk group. *)

val dedup : Topology.t -> fault list -> fault list
(** Drop [Link_down] faults made redundant by an earlier (or simultaneous)
    [Switch_down] of one of their endpoints in the same time-sorted list:
    those fibres are already dead, and counting them again would
    double-count toward the protection edge. Endpoints are read through
    {!Ffc_net.Topology.link}; a fault naming a link id outside the
    topology is kept. *)

val forced_link_failures : Ffc_util.Rng.t -> interval_s:float -> Topology.t -> int -> fault list
(** Exactly [n] distinct fibre failures ({!Ffc_net.Topology.fibres}) at
    uniform times (the Figure 1 forced-fault experiments). *)

val forced_switch_failures : Ffc_util.Rng.t -> interval_s:float -> Topology.t -> int -> fault list
