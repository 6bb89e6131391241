(** Experiment assembly (§8.1): the two evaluation networks with
    gravity-model flows, demand calibration to the "well-utilised" operating
    point, traffic scaling and priority splitting.

    Traffic scale 1 is calibrated so that basic TE satisfies 99% of demand
    (the paper's well-utilised network); scales 0.5 and 2 model the
    well-provisioned and under-provisioned networks. *)

open Ffc_net

type t = {
  name : string;
  input : Ffc_core.Te_types.input;  (** demands = calibrated scale-1 base *)
  spec : Traffic.spec;
  calibration_scale : float;
      (** the uniform demand scale the builder settled on *)
  calibration_achieved : float;
      (** satisfaction ratio basic TE actually reaches at that scale — the
          machine-readable form of the stderr calibration warning *)
  calibrated : bool;
      (** [calibration_achieved >= target] (0.99); [false] means the
          scenario is uncalibrated and results should be read accordingly *)
}

val lnet_sim : ?sites:int -> ?nflows:int -> Ffc_util.Rng.t -> t
(** Synthetic L-Net-like WAN (see DESIGN.md scale note). Defaults: 20
    sites, 2 flows per site. *)

val snet : ?nflows:int -> Ffc_util.Rng.t -> t
(** The B4-like 12-site S-Net. *)

val scaled : t -> float -> Ffc_core.Te_types.input
(** Input with demands at the given traffic scale. *)

val demand_series :
  Ffc_util.Rng.t -> t -> scale:float -> intervals:int -> float array array
(** Per-interval demands with diurnal variation and noise at a traffic
    scale. *)

val with_priorities : fractions:float list -> t -> t
(** Split each flow into one flow per priority class (§8.4); demands are
    re-calibrated against the same total. *)

val calibrate : Ffc_core.Te_types.input -> float * float
(** [calibrate input] is [(scale, achieved)]: the largest uniform demand
    scale at which basic TE satisfies 0.99 of total demand, and the
    satisfaction ratio actually achieved at that scale.
    [achieved < 0.99] means calibration {e failed} — even the smallest
    scale in range cannot reach the target — and the scenario builders log a
    warning to stderr instead of silently using the floor scale. *)
