(** Internal shared scaffolding for the TE linear programs: variable
    creation, the link/tunnel crossing structure, the basic constraints
    (Eqns 2-4 of the paper) reused by every formulation, and the one
    {!solve} through which every TE linear program reaches the LP solver. *)

open Ffc_net
open Ffc_lp

type crossing = { flow : Flow.t; tidx : int; tunnel : Tunnel.t }
(** One (flow, tunnel) pair traversing a given link. *)

type vars = {
  model : Model.t;
  bf : Model.var array; (* by flow id *)
  af : Model.var array array; (* by flow id, tunnel position *)
  crossings : crossing list array;
      (* by link id: [crossings_by_link] of the input, computed once per
         build for every row that groups a link's tunnels *)
}

(** {2 Stable keys}

    Scope ids ({!Model.scope}) of the formulation blocks under the model
    root. Inside its block every row or variable group sits in a child
    scope named by the entity it encodes (flow id, link id), one level
    further by tunnel position or ingress switch where a block has those,
    so a group that appears or vanishes with the data (a skipped ingress,
    an overloaded link, a mice flow) leaves every other group's keys
    unchanged and a warm basis carries across. *)

val scope_vars : int  (** [b_f], [a_{f,t}]: per flow *)

val scope_capacity : int  (** Eqn 2: per link *)

val scope_demand : int  (** Eqn 3: per flow *)

val scope_frozen : int  (** §5.6 frozen uncertain flows: per flow *)

val scope_beta : int  (** Eqn 8 [beta_{f,t}]: per flow, then tunnel *)

val scope_control : int  (** Eqns 13-14: per link, then ingress *)

val scope_data_plane : int  (** Eqn 15: per flow, then tunnel *)

val make_vars : ?fixed_demand:bool -> Model.t -> Te_types.input -> vars
(** Creates [b_f] in [\[0, d_f\]] and [a_{f,t} >= 0], and the crossing
    index [crossings]. With [~fixed_demand] (the §5.4 no-rate-control
    setting) [b_f] is pinned to [d_f]. Reads each demand through {!demand},
    so it raises [Invalid_argument] naming the flow if one is negative or
    NaN. *)

val demand : Te_types.input -> Flow.t -> float
(** [demand input f] is [f]'s demand in [input]. Raises [Invalid_argument]
    naming the flow if it is negative or NaN. *)

val crossings_by_link : Te_types.input -> crossing list array
(** Indexed by link id: every tunnel crossing that link ([L[t,e] = 1]).
    A build reads [vars.crossings] instead of calling this again. *)

val by_ingress : crossing list -> (Topology.switch * crossing list) list
(** Group crossings by the flow's ingress switch ([S[t,v] = 1]). *)

val demand_constraints : vars -> Te_types.input -> unit
(** Eqn 3: [sum_t a_{f,t} >= b_f] for every flow. *)

val capacity_constraints : ?reserved:float array -> vars -> Te_types.input -> unit
(** Eqn 2: per-link [sum a_{f,t} L[t,e] <= c_e - reserved_e]. [reserved]
    (default all-zero) supports the multi-priority cascade (§5.1). *)

val load_expr : vars -> crossing list -> Expr.t
(** Sum of [a_{f,t}] over the given crossings. *)

val append_load : vars -> crossing list -> unit
(** Appends the terms of {!load_expr} to the model's row being built
    ({!Ffc_lp.Model.term}), each [a_{f,t}] with coefficient 1. *)

val total_rate_expr : vars -> Expr.t
(** [sum_f b_f], the Eqn 1 objective. *)

val alloc_of_solution : vars -> Te_types.input -> (Model.var -> float) -> Te_types.allocation
(** [alloc_of_solution vars input value] reads the solved variables back
    into an {!Te_types.allocation}, [value] giving each variable's value
    ([Model.value sol] for a solve's solution); clamps within numerical
    tolerance to be non-negative. *)

(** {2 Solving} *)

type stats = {
  lp_vars : int;
  lp_rows : int;
  build_ms : float;  (** wall-clock time constructing the model *)
  solve_ms : float;  (** wall-clock time inside the LP solver *)
  solver : Problem.solver_stats option;
      (** simplex instrumentation (iterations, refactorisations, warm-start
          outcome, ...) when the solver reports it *)
}

val solve :
  label:string ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_start:Problem.basis ->
  started_ms:float ->
  Model.t ->
  (Model.solution * stats, Te_types.solve_failure) result
(** Solve a built model: the one place where an LP outcome becomes a TE
    result. [started_ms] is the {!Ffc_util.Clock.now_ms} reading taken when
    the build began. The build time counts against [deadline_ms]: a budget
    the build used up fails with [`Deadline] before the solver starts, and
    the solver gets what is left. Every other option goes to {!Model.solve}
    unchanged. A failure's message reads
    [<label>: infeasible|unbounded|iteration limit|deadline exceeded],
    followed by [" (<reason>)"] when the solver gave a
    [Problem.status_reason] (["model build"] when the build used the
    budget up). *)
