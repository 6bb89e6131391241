(** Multi-priority FFC (§5.1): cascading computation, highest priority first,
    each class solved with its own protection level against the residual
    capacity left by higher classes.

    The paper requires protection to be non-increasing with priority
    ([kh >= kl] componentwise); {!solve} enforces this. *)

val solve :
  config_of:(int -> Ffc.config) ->
  ?prev:Te_types.allocation ->
  Te_types.input ->
  (Te_types.allocation * Ffc.stats list, string) result
(** [solve ~config_of input] solves one FFC TE per priority class present in
    [input.flows] (class 0 = highest, first). [config_of p] gives the class
    configuration; [prev] is the previously-installed allocation over all
    flows. Returns the merged allocation and per-class LP stats. *)

val solve_warm_checked :
  config_of:(int -> Ffc.config) ->
  ?prev:Te_types.allocation ->
  ?presolve:bool ->
  ?max_iterations:int ->
  ?deadline_ms:float ->
  ?warm_starts:(int * Ffc_lp.Problem.basis) list ->
  Te_types.input ->
  ( Te_types.allocation * (int * Ffc.stats * Ffc_lp.Problem.basis) list,
    int * Te_types.solve_failure )
  result
(** Like {!solve} but threads simplex bases per priority class:
    [warm_starts] maps a class to the basis its previous-interval solve
    returned, and the result carries each class's final basis for the next
    interval. Classes absent from [warm_starts] cold start; a class's basis
    is mapped by key onto its new build, whatever rows changed. Failures
    carry the failing class and the machine-readable
    {!Te_types.failure_kind}, and the cascade accepts LP bounds:
    [max_iterations] applies per class, while [deadline_ms] is a wall-clock
    budget for the whole cascade (each class is given what remains of it). *)

val priorities : Te_types.input -> int list
(** Distinct priority classes, ascending (highest priority first). *)
