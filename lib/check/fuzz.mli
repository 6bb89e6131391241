(** Differential fuzzing driver.

    An {!oracle} packages an instance generator, a property test returning a
    {!verdict}, a shrinker and a repro printer for one instance family.
    {!run} draws deterministic instance streams (one {!Ffc_util.Rng.split}
    per oracle off a master seed, one split per instance), executes each
    oracle, and greedily shrinks every failure to a minimal reproducer while
    preserving the failure category.

    Failure messages are namespaced by category: everything before the first
    [':'] (e.g. ["crash"], ["residual"], ["guarantee"]) identifies the kind
    of breakage. Shrinking only accepts candidates failing in the {e same}
    category, so a minimal repro demonstrates the originally observed bug
    rather than whatever else a smaller instance happens to trip over. *)

type verdict =
  | Pass
  | Skip of string  (** instance not applicable (e.g. too large for the exhaustive oracle) *)
  | Fail of string  (** ["category: detail"] *)

type oracle

val oracle :
  name:string ->
  generate:(Ffc_util.Rng.t -> 'a) ->
  test:('a -> verdict) ->
  shrink:('a -> 'a list) ->
  repro:('a -> string) ->
  oracle

val oracle_name : oracle -> string

type finding = {
  f_oracle : string;
  f_seed : int;  (** master seed of the campaign *)
  f_index : int;  (** instance index within the oracle's stream *)
  message : string;  (** failure message of the original instance *)
  min_message : string;  (** failure message of the shrunk instance *)
  shrink_steps : int;
  repro : string;
      (** the oracle's [repro] of the shrunk instance: for every oracle in
          {!Oracles.available}, a {!repro_program} *)
}

type oracle_report = {
  o_name : string;
  exercised : int;  (** instances that ran to a [Pass]/[Fail] verdict *)
  skipped : int;
  findings : finding list;
}

type report = { r_seed : int; elapsed_ms : float; oracles : oracle_report list }

val run_test : ('a -> verdict) -> 'a -> verdict
(** Apply a property test, converting an escaped exception into
    [Fail "crash: ..."]. *)

val repro_program : test:string -> ('a -> string) -> 'a -> string
(** [repro_program ~test literal x] is a standalone OCaml program that
    rebuilds [x] from the expression [literal x] and prints
    [Fuzz.run_test test x] as [PASS], [SKIP <reason>] or [FAIL <message>].
    [test] is OCaml source naming the oracle's own test, e.g.
    ["Ffc_check.Oracles.ffc_test"]; an oracle's [repro] is this program,
    so a repro is judged by the code that found it. Programs are [let ()]
    items: several compile together in one file ({!write_repros}). *)

val category : string -> string
(** Failure category: prefix up to the first [':']. *)

val minimise :
  test:('a -> verdict) -> shrink:('a -> 'a list) -> 'a -> string -> 'a * string * int
(** [minimise ~test ~shrink x msg] greedily shrinks a failing instance,
    accepting only candidates that fail in [category msg]; returns the
    minimal instance, its message and the number of successful shrink
    steps. Bounded by a fixed total attempt budget. *)

val run :
  ?pool:Ffc_util.Pool.t ->
  ?seed:int ->
  ?count:int ->
  ?time_budget_ms:float ->
  oracles:oracle list ->
  unit ->
  report
(** Run up to [count] instances per oracle (default 100, seed 42). Each
    oracle stops after a few findings (shrinking dominates cost, and
    further failures are almost always the same bug).

    Instances run in chunks: one instance without [pool], [max 8 (4 * jobs)]
    instances sharded across the pool's domains with it. Each chunk's
    findings are shrunk before the next chunk starts. Every instance is a
    pure function of (seed, oracle, index) and verdicts are folded back in
    index order, so without a time budget the report is the same at any
    pool size ([elapsed_ms] aside).

    With [time_budget_ms] the campaign starts no chunk once the budget has
    elapsed, shrinking time included: without a pool it is checked before
    every instance, with one the report is a prefix of the unbudgeted
    report that ends on a chunk boundary. Truncation never changes which
    instance a given (seed, oracle, index) denotes. *)

val failures : report -> finding list

val pp_finding : Format.formatter -> finding -> unit

val write_repros : string -> finding list -> unit
(** [write_repros path findings] writes each finding's repro to [path],
    behind a comment naming its oracle, seed, instance and minimal message:
    a runnable [FUZZ_repro.ml]. *)

val pp_report : Format.formatter -> report -> unit
(** Per-oracle exercised/skipped/failure counts followed by every finding
    with its repro. *)
