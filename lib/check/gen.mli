(** Deterministic random-instance generators for the fuzzing harness.

    Each instance family is plain data: generators ([*_instance]) draw only
    from the supplied {!Ffc_util.Rng.t}; shrinkers ([shrink_*]) propose
    structurally smaller candidates in decreasing-impact order (the fuzz
    driver greedily recurses on the first candidate that still fails); and
    literal printers ([*_literal]) print the instance back as an OCaml
    expression of its type. Floats print as round-trip [%.17g] and record
    labels carry the [Ffc_check.Gen] path, so a repro ({!Fuzz.repro_program})
    rebuilds the exact instance without an [open]. *)

(** {2 LP instances}

    Random bounded-variable LPs including adversarial shapes: duplicate and
    zero-rhs rows (degeneracy), scaled row copies (rank deficiency),
    epsilon-perturbed row copies (near-singular bases) and variables
    appearing in no row (zero columns). *)

type sense = Le | Ge | Eq

type lp_row = { coeffs : float array; sense : sense; rhs : float }

type lp = {
  lb : float array;
  ub : float array;
  obj : float array;
  rows : lp_row list;
}

val lp_nvars : lp -> int

val lp_model : ?row_ids:int array -> lp -> Ffc_lp.Model.t * Ffc_lp.Model.var array
(** Build the instance as a maximisation model plus its variables. Row [i]
    is added in scope [row_ids.(i)] (default [i]; {!Ffc_lp.Model.scope}),
    so its key follows the id, not its position. *)

val lp_reshape : lp -> cap:float -> lp * int array
(** The shape-changing warm leg's instance: [t] without its middle row
    (index [nrows / 2]) and with the objective cut [obj . x <= cap]
    appended, plus the row ids under which {!lp_model} keeps every
    surviving row's key (the cut gets the fresh id [nrows]). *)

val lp_instance : Ffc_util.Rng.t -> lp
val shrink_lp : lp -> lp list
val lp_literal : lp -> string

(** {2 Sparse-LU instances}

    Sparse basis matrices: healthy diagonally dominant ones (with random
    column-replacement update sequences), explicit-zero entries, zero
    columns, exact duplicate columns, near-singular pairs and
    rank-completion shapes. *)

type lu = {
  lu_m : int;
  cols : (int array * float array) array;
  complete : bool;
  must_factor : bool;
      (** strictly diagonally dominant by construction: [factorise] must
          return [Some] and residuals are checked against a dense solve *)
  must_reject : bool;
      (** exactly singular by construction: [factorise] must return [None] *)
  lu_updates : (int * float array) list;
      (** [(slot, dense column)] replacements applied through {!Ffc_lp.Sparse_lu.update} *)
}

val lu_repair_cols : lu -> (int array * float array) array
(** The columns the lu oracle's repair leg factorises with
    [Sparse_lu.factorise ~repair:true]: the instance's own, plus — on a
    basis built nonsingular — two columns dependent on them, so exactly two
    must be rejected. *)

val lu_instance : Ffc_util.Rng.t -> lu
val shrink_lu : lu -> lu list
val lu_literal : lu -> string

(** {2 TE instances}

    Random connected topologies (spanning tree plus chords, duplex
    capacitated links), flows with (p, q)-disjoint tunnels, demand vectors
    and a protection level [(kc, ke, kv)] with at least one positive
    component. *)

type te = {
  nswitches : int;
  te_links : (int * int * float) array;
  te_flows : (int * int * int * int array array) array;
  demands : float array;
  kc : int;
  ke : int;
  kv : int;
}

val te_input : te -> Ffc_core.Te_types.input
(** Materialise the data as a topology/flows/demands input. *)

val te_instance : Ffc_util.Rng.t -> te
val shrink_te : te -> te list
val te_literal : te -> string

(** {2 Simulator instances}

    A TE instance paired with one concrete fault case: failed links and
    switches, stuck ingresses, and whether the previously-installed
    allocation is zero or a basic-TE solution. *)

type sim = {
  sim_te : te;
  failed_links : int array;
  failed_switches : int array;
  stuck : int array;
  old_zero : bool;
}

val sim_instance : Ffc_util.Rng.t -> sim
val shrink_sim : sim -> sim list
val sim_literal : sim -> string
