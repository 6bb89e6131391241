(** Robust demand estimation from imperfect telemetry.

    Turns the lossy, noisy per-flow report feed of the sensing plane into a
    conservative planning view: an EWMA of the reported level plus a
    decaying peak tracker, inflated by a configurable relative headroom
    gamma. The {!envelope} is shaped exactly like the [~peaks] argument of
    {!Demand_robust.solve} ([envelope t] >= [nominal t] componentwise), so
    a controller can feed the pair straight into the robust-TE path.

    Conservatism rules: a missing report ages the view ({!staleness}) but
    never shrinks it, and a reconciliation ({!observe_exact}) is the only
    operation that discards remembered peaks. *)

type config = {
  alpha : float;  (** EWMA gain on a fresh report, in (0, 1] *)
  peak_decay : float;
      (** per-observed-interval decay of the peak tracker, in [0, 1]
          (1 = peaks never decay, 0 = peak is just the last report) *)
  headroom : float;  (** relative margin gamma applied to the envelope, >= 0 *)
  dead_band : float;
      (** relative view change below which the controller may skip a
          re-solve (hysteresis); 0 disables damping *)
}

val config :
  ?alpha:float -> ?peak_decay:float -> ?headroom:float -> ?dead_band:float -> unit -> config
(** Validated constructor. Defaults: alpha 0.3, peak_decay 0.9,
    headroom 0.15, dead_band 0. *)

val passthrough : config
(** The identity estimator (alpha 1, no peak memory, no headroom, no
    dead-band): planning view = last report. Over a lossless, noiseless
    channel this is perfect sensing, the simulator's default. *)

type t

val create : config -> nflows:int -> t

val observe : t -> float option array -> unit
(** Feed one interval's reports; [None] marks a dropped report (the flow's
    view ages but keeps its value). A flow's first report initialises mean
    and peak directly. *)

val observe_exact : t -> float array -> unit
(** Full-view reconciliation: snap mean = peak = truth, zero staleness.
    Used when a recovering controller resynchronises its view. *)

val nominal : t -> float array
(** Current EWMA level per flow (a fresh copy). *)

val envelope : t -> float array
(** Planning demands: [(1 + headroom) * max mean peak] per flow. Always
    [>= nominal] componentwise — a valid [~peaks] for
    {!Demand_robust.solve}. *)

val staleness : t -> int
(** Max over flows of intervals since the last report (0 = fully fresh;
    never-seen flows do not age). *)

val mean_rel_error : view:float array -> truth:float array -> float
(** Mean over flows of [|view - truth| / max truth 1e-6] — the divergence
    of a planning view from ground truth. *)

val within_dead_band : config -> view:float array -> last:float array -> bool
(** [true] iff every flow's view moved by at most [dead_band * max last
    1e-6] since [last] (and the dead-band is enabled): the hysteresis
    predicate for skipping a re-solve. *)
