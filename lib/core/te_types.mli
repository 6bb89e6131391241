(** Shared types of the TE formulations: problem input, computed
    allocations, and protection levels. *)

open Ffc_net

type input = {
  topo : Topology.t;
  flows : Flow.t list;
  demands : float array; (* indexed by Flow.id; Gbps per TE interval *)
}

type allocation = {
  bf : float array; (* granted rate per flow id *)
  af : float array array; (* per flow id, per tunnel position: tunnel rate *)
}

val zero_allocation : input -> allocation

val weights : allocation -> int -> float array
(** [weights alloc f] are the traffic-splitting weights [w_{f,t} = a_{f,t} /
    sum_t a_{f,t}] installed at the ingress switch; all-zero if the flow has
    no allocation (no installed rules means no traffic can be emitted). *)

val throughput : allocation -> float
(** [sum_f b_f]. *)

val loads_with : input -> (Flow.t -> float array) -> float array
(** [loads_with input rates] is the load per link id when each flow sends
    [rates f] on its tunnels (indexed by tunnel position): the one
    flow -> tunnel -> link accumulation behind every load model here.
    Flows are visited in [input.flows] order and non-positive rates are
    skipped, so callers agree bit for bit. *)

val link_loads : input -> allocation -> float array
(** Load per link id implied by the tunnel allocations [a_{f,t}] (the
    planned worst-case load, not the traffic-split load). *)

val split_loads : input -> allocation -> float array
(** Load per link id when each flow sends [b_f] split by {!weights} (the
    actual no-fault data-plane load; [<= link_loads] pointwise whenever
    [sum_t a_{f,t} >= b_f]). *)

type failure_kind = [ `Infeasible | `Unbounded | `Iteration_limit | `Deadline ]
(** Why a TE solve failed, preserved in machine-readable form so callers
    (notably {!Controller}) can choose how to degrade instead of parsing the
    error message. *)

type solve_failure = { kind : failure_kind; message : string }

val failure_kind_label : failure_kind -> string

val failure : failure_kind -> string -> solve_failure

type protection = { kc : int; ke : int; kv : int }
(** Protection level: up to [kc] switch-configuration faults, [ke] link
    failures, [kv] switch failures (§4.5). *)

val no_protection : protection

val protection : ?kc:int -> ?ke:int -> ?kv:int -> unit -> protection
(** Missing components default to 0. Raises [Invalid_argument] on negative
    values. *)

val pp_protection : Format.formatter -> protection -> unit
(** Prints [(kc, ke, kv)]. *)

val max_oversubscription : input -> float array -> float
(** Given per-link loads, the maximum relative oversubscription
    [max_e (load_e - c_e) / c_e], in percent; 0 when nothing is overloaded
    (the metric of the paper's Figure 1). *)
