(* Writes [repros.ml], the repro of every kind of fuzz and chaos instance,
   and [repros.expected], the line each must print: the verdict its oracle
   gives here, in-process. Usage: gen_repros.exe REPROS.ml REPROS.expected.

   The repros are the ones the campaigns print: each oracle's registered
   [repro] ([Oracles.*_repro], [Chaos.repro]) for fixed-seed instances and
   two hand-made ones, and the shrunk findings of a seeded lp campaign,
   written through [Fuzz.write_repros] with their headers. *)

module Fuzz = Ffc_check.Fuzz
module Gen = Ffc_check.Gen
module Oracles = Ffc_check.Oracles
module Chaos = Ffc_check.Chaos
module Rng = Ffc_util.Rng

let verdict_line = function
  | Fuzz.Pass -> "PASS"
  | Fuzz.Skip m -> "SKIP " ^ m
  | Fuzz.Fail m -> "FAIL " ^ m

(* (repro, in-process verdict) of one instance. *)
let case repro test x = (repro x, Fuzz.run_test test x)

let fixed_seed seed =
  let rng () = Rng.create seed in
  [
    case Oracles.lp_repro Oracles.lp_test (Gen.lp_instance (rng ()));
    case Oracles.lu_repro Oracles.lu_test (Gen.lu_instance (rng ()));
    case Oracles.ffc_repro Oracles.ffc_test (Gen.te_instance (rng ()));
    case Oracles.sim_repro Oracles.sim_test (Gen.sim_instance (rng ()));
    case Chaos.repro Chaos.test (Chaos.generate (rng ()));
  ]

(* The rows 3.0000001 x = 5 and 3 x = 5: infeasible, but feasible within
   solver tolerance, so the solvers disagree and the lp oracle skips the
   instance as ill-conditioned. Printed to six digits the rows coincide and
   the verdict becomes PASS, so a literal printer that loses digits fails
   the diff here. *)
let near_parallel_lp =
  let row coeff = { Gen.coeffs = [| coeff |]; sense = Gen.Eq; rhs = 5. } in
  { Gen.lb = [| 0. |]; ub = [| infinity |]; obj = [| 0. |]; rows = [ row 3.0000001; row 3. ] }

(* Exactly singular columns labelled [must_factor]: the lu oracle fails
   this instance whatever the state of the solver. *)
let singular_lu =
  {
    Gen.lu_m = 2;
    cols = [| ([| 0; 1 |], [| 1.; 2. |]); ([| 0; 1 |], [| 2.; 4. |]) |];
    complete = false;
    must_factor = true;
    must_reject = false;
    lu_updates = [];
  }

let () =
  let ml, expected =
    match Sys.argv with
    | [| _; ml; expected |] -> (ml, expected)
    | _ -> failwith "usage: gen_repros.exe REPROS.ml REPROS.expected"
  in
  let lp = match Oracles.select [ "lp" ] with Ok os -> os | Error e -> failwith e in
  let findings = Fuzz.failures (Fuzz.run ~seed:7 ~count:1000 ~oracles:lp ()) in
  let cases =
    List.concat_map fixed_seed [ 1; 2; 3 ]
    @ [
        case Oracles.lp_repro Oracles.lp_test near_parallel_lp;
        case Oracles.lu_repro Oracles.lu_test singular_lu;
      ]
  in
  Fuzz.write_repros ml findings;
  let oc = open_out_gen [ Open_append; Open_text ] 0o644 ml in
  List.iter (fun (repro, _) -> output_string oc (repro ^ "\n")) cases;
  close_out oc;
  let oc = open_out expected in
  List.iter
    (fun (f : Fuzz.finding) -> output_string oc (verdict_line (Fuzz.Fail f.Fuzz.min_message) ^ "\n"))
    findings;
  List.iter (fun (_, v) -> output_string oc (verdict_line v ^ "\n")) cases;
  close_out oc
