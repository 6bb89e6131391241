(** The oracles the fuzzing harness runs (see {!Fuzz}).

    - ["lp"]: the revised simplex (with and without presolve) and the dense
      tableau must agree on status and objective on random adversarial LPs;
      claimed-optimal solutions are re-checked against the instance data; a
      warm-started re-solve of a relaxed copy must match a cold dense solve.
    - ["lu"]: {!Ffc_lp.Sparse_lu} against a dense reconstruction —
      diagonally dominant bases must factorise with small FTRAN/BTRAN
      residuals (also after random column-replacement updates), exactly
      singular bases must be rejected, near-singular ones may go either way
      but must never crash, and the pivot assignment must be structurally
      sound. Each diagonally dominant basis also yields a slack-heavy one
      (unit columns, one with value -1, and columns scaled to diagonal 1),
      checked the same way, and a repair-mode factorisation with dependent
      columns appended. Every factorisation runs on its domain's
      {!Ffc_lp.Sparse_lu} scratch, reused across instances.
    - ["ffc"]: the sorting-network and duality encodings must agree on
      throughput; any solver failure is a bug (zero allocation is always
      feasible); accepted allocations are audited against the exhaustive
      fault-case enumerator (Eqns 2/5) for the instance's (kc, ke, kv),
      skipping instances beyond the enumeration budget.
    - ["sim"]: rescaling conserves per-flow traffic (sent + undeliverable =
      granted), per-class link loads sum to total loads, and
      {!Ffc_sim.Loss.congestion_rates} matches an independent prefix-sum
      reference for strict-priority drops, whose total equals the capacity
      overflow. *)

val factorise :
  ?repair:bool ->
  m:int ->
  complete:bool ->
  (int array * float array) array ->
  Ffc_lp.Sparse_lu.factor_result option
(** [factorise ~m ~complete cols] is {!Ffc_lp.Sparse_lu.factorise} on
    columns given as [(rows, values)] pairs, the form of [Gen.lu]'s
    instances, flattened into its column-start, row-index and value arrays
    at the call. [repair] defaults to [false]. *)

val lp_test : Gen.lp -> Fuzz.verdict
val lu_test : Gen.lu -> Fuzz.verdict
val ffc_test : Gen.te -> Fuzz.verdict
val sim_test : Gen.sim -> Fuzz.verdict

(** {2 Repros}

    Each oracle's [repro]: {!Fuzz.repro_program} over the instance's
    [Gen.*_literal], calling the test above. *)

val lp_repro : Gen.lp -> string
val lu_repro : Gen.lu -> string
val ffc_repro : Gen.te -> string
val sim_repro : Gen.sim -> string

val all : unit -> Fuzz.oracle list
(** The four default-campaign oracles, in the listing order that fixes
    their seed streams: ["lp"], ["lu"], ["ffc"], ["sim"]. Each oracle runs
    its legs one after another in listing order; a pooled {!Fuzz.run}
    parallelises across instances, not within one. *)

val available : unit -> Fuzz.oracle list
(** {!all} plus the opt-in ["chaos"] oracle ({!Chaos.oracle}) — selectable
    by name but excluded from default campaigns, where one multi-interval
    simulation per instance would starve the cheap oracles under the shared
    time budget. *)

val select : string list -> (Fuzz.oracle list, string) result
(** Subset of {!available} by name, kept in listing order. Unknown names
    yield [Error]. Note that {!Fuzz.run} splits seed streams by list
    position, so a subset run draws different instances than the same
    oracle in a full run. *)
