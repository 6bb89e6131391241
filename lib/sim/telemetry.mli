(** The imperfect sensing plane between the network and the controller.

    {!Interval_sim} keeps running loss accounting and guarantee auditing on
    ground truth; the controller's {e view} passes through this channel:

    - per-flow demand reports, each dropped with probability [loss] and
      otherwise perturbed by multiplicative gaussian noise [demand_noise];
    - fault notifications delivered [delay] interval edges late (each lost
      with probability [loss]) — by then the element has been repaired, but
      the controller cannot confirm it, so the element is {e suspect} for
      the interval the notification lands on;
    - keepalives: an element misses its (redundant, within-interval)
      keepalive round with probability [loss]^2, also marking it suspect.

    Suspect elements are charged against the data-plane protection budget
    before confirmation — conservative, never guarantee-weakening.

    All randomness comes from the caller's dedicated RNG stream, and every
    draw is conditional on the corresponding imperfection being configured
    (the discipline of {!Fault_model.correlated}): a {!neutral} channel
    consumes no randomness. With {!Ffc_core.Estimator.passthrough} it is
    perfect sensing, the simulator's default. *)

type config = {
  loss : float;  (** drop probability for reports and notifications, in [0, 1) *)
  delay : int;  (** interval edges a fault notification lags, >= 0 *)
  demand_noise : float;  (** relative sigma of demand-report noise, >= 0 *)
}

val config : ?loss:float -> ?delay:int -> ?demand_noise:float -> unit -> config
(** Validated constructor; all imperfections default to off. *)

val neutral : config
(** The perfect channel: no loss, no delay, no noise. *)

type t

val create : config -> t

val begin_interval :
  t -> Ffc_util.Rng.t -> interval:int -> Ffc_net.Topology.t -> unit
(** Interval-edge sensing round (call before the controller's solve):
    clears last interval's suspicions, delivers due fault notifications,
    and runs the keepalive round. Draw order is fixed (fibres in topology
    order, then switches). *)

val observe_demands : t -> Ffc_util.Rng.t -> float array -> float option array
(** One interval's demand reports; [None] = dropped. *)

val note_faults :
  t -> Ffc_util.Rng.t -> interval:int -> Fault_model.fault list -> unit
(** Report the faults the interval actually suffered. With [delay = 0] the
    in-interval reaction machinery already consumed them and nothing is
    queued; with [delay > 0] each surviving notification is queued to raise
    suspicion [delay] edges later. *)

val reconcile : t -> unit
(** Full-view resynchronisation (controller recovery): drops queued stale
    news and current suspicions. *)

val suspect_counts : t -> int * int
(** [(fibres, switches)] currently suspect. *)

val keepalive_miss_prob : config -> float
(** The per-element, per-interval keepalive miss probability ([loss]^2) —
    exposed for tests. *)
