(** A tunnel is a loop-free directed path of links between a flow's ingress
    and egress switches. Tunnels carry the indicator functions of the
    paper's formulation: [L[t,e]] ({!uses_link}) and [S[t,v]] (the source
    test), plus the intermediate-switch test used for [(p, q)] disjointness
    and switch-failure handling. *)

type t = private {
  id : int;
  links : Topology.link list; (* in path order, non-empty *)
  src : Topology.switch;
  dst : Topology.switch;
}

val create : id:int -> Topology.link list -> t
(** Validates contiguity (each link starts where the previous one ended),
    non-emptiness and loop-freedom. *)

val uses_link : t -> Topology.link -> bool
(** [L[t,e]] of the paper. *)

val intermediate_switches : t -> Topology.switch list
(** Switches strictly inside the path (excludes [src] and [dst]); the
    relevant set for switch-failure disjointness since all of a flow's
    tunnels share the endpoints. *)

val switches : t -> Topology.switch list
(** All switches in path order, endpoints included. *)

val survives : t -> failed_links:(int -> bool) -> failed_switches:(Topology.switch -> bool) -> bool
(** Whether the tunnel is usable given failed link ids and switches; a
    failure of any traversed link, or of any switch on the path (endpoints
    included), kills the tunnel. *)

val latency_ms : t -> float
(** Sum of link propagation delays. *)

val hops : t -> int

val pp : Topology.t -> Format.formatter -> t -> unit
(** Prints e.g. [s1-s3-s4]. *)
