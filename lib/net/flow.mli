(** A flow is aggregated ingress->egress traffic carried over a fixed set of
    pre-established tunnels (the paper's [f] with tunnel set [T_f]).
    Demands vary per TE interval and live outside this type. *)

type t = private {
  id : int;
  src : Topology.switch;
  dst : Topology.switch;
  tunnels : Tunnel.t list;
  priority : int; (* 0 = highest; single-priority networks use 0 *)
  ntunnels : int; (* List.length tunnels *)
  p : int; (* at most p tunnels share any link *)
  q : int; (* at most q tunnels share any intermediate switch *)
}

val create :
  id:int -> ?priority:int -> src:Topology.switch -> dst:Topology.switch -> Tunnel.t list -> t
(** Computes the tunnel count and [p] and [q] once, for {!num_tunnels},
    {!p_q} and {!tau}. Raises [Invalid_argument] if any tunnel's endpoints
    disagree with [src]/[dst] or the tunnel list is empty. *)

val p_q : t -> int * int
(** The actual [(p, q)] link-switch disjointness of the tunnel set: at most
    [p] tunnels share any link and at most [q] share any intermediate
    switch (§4.3). *)

val num_tunnels : t -> int

val tau : t -> ke:int -> kv:int -> int
(** [tau f ~ke ~kv = |T_f| - ke*p_f - kv*q_f], the paper's guaranteed lower
    bound on residual tunnels under up to [ke] link and [kv] switch
    failures. May be negative (meaning no guarantee). *)
