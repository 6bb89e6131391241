(* Tests for the differential fuzzing harness itself (lib/check): runner
   determinism, category-preserving shrinking, crash capture and generator
   well-formedness over many seeds. test/repro compiles the repros. The real
   solver-facing campaign runs as the [fuzz] experiment in bench/. *)

module Fuzz = Ffc_check.Fuzz
module Gen = Ffc_check.Gen
module Oracles = Ffc_check.Oracles
module Rng = Ffc_util.Rng
module Pool = Ffc_util.Pool

(* A synthetic oracle over int lists: fails whenever the list contains an
   element >= 10. The minimal failing instance for the shrinker to find is
   the singleton [10] (shrink: drop elements, halve elements). *)
let synthetic_test xs =
  if List.exists (fun x -> x >= 10) xs then
    Fuzz.Fail (Printf.sprintf "big-element: %d elements" (List.length xs))
  else Fuzz.Pass

let synthetic_shrink xs =
  let drops = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs in
  let halves =
    if List.exists (fun x -> x > 10) xs then
      [ List.map (fun x -> if x > 10 then ((x - 10) / 2) + 10 else x) xs ]
    else []
  in
  drops @ halves

let synthetic_oracle_with test =
  Fuzz.oracle ~name:"synthetic"
    ~generate:(fun rng -> List.init (3 + Rng.int rng 8) (fun _ -> Rng.int rng 40))
    ~test ~shrink:synthetic_shrink
    ~repro:(fun xs -> String.concat ";" (List.map string_of_int xs))

let synthetic_oracle = synthetic_oracle_with synthetic_test

let counts r =
  List.map
    (fun (o : Fuzz.oracle_report) ->
      (o.Fuzz.o_name, o.Fuzz.exercised, o.Fuzz.skipped, List.length o.Fuzz.findings))
    r.Fuzz.oracles

let test_runner_deterministic () =
  let run () = Fuzz.run ~seed:7 ~count:60 ~oracles:[ synthetic_oracle ] () in
  let a = run () and b = run () in
  Alcotest.(check bool) "same counts" true (counts a = counts b);
  let msgs r = List.map (fun f -> (f.Fuzz.f_index, f.Fuzz.min_message, f.Fuzz.repro)) (Fuzz.failures r) in
  Alcotest.(check bool) "same findings" true (msgs a = msgs b);
  Alcotest.(check bool) "found something" true (Fuzz.failures a <> [])

let test_seed_changes_stream () =
  (* Record the raw generated stream: same master seed must replay it
     verbatim, different seeds must diverge. *)
  let recording seen =
    Fuzz.oracle ~name:"recording"
      ~generate:(fun rng ->
        let x = Rng.int rng 1_000_000 in
        seen := x :: !seen;
        x)
      ~test:(fun _ -> Fuzz.Pass)
      ~shrink:(fun _ -> [])
      ~repro:string_of_int
  in
  let s1 = ref [] and s1' = ref [] and s2 = ref [] in
  ignore (Fuzz.run ~seed:1 ~count:30 ~oracles:[ recording s1 ] ());
  ignore (Fuzz.run ~seed:1 ~count:30 ~oracles:[ recording s1' ] ());
  ignore (Fuzz.run ~seed:2 ~count:30 ~oracles:[ recording s2 ] ());
  Alcotest.(check (list int)) "same seed replays the stream" !s1 !s1';
  Alcotest.(check bool) "different seed diverges" true (!s1 <> !s2)

let test_shrinker_converges () =
  let r = Fuzz.run ~seed:3 ~count:40 ~oracles:[ synthetic_oracle ] () in
  match Fuzz.failures r with
  | [] -> Alcotest.fail "synthetic oracle found nothing"
  | fs ->
    List.iter
      (fun (f : Fuzz.finding) ->
        Alcotest.(check string) "category preserved" "big-element"
          (Fuzz.category f.Fuzz.min_message);
        (* Greedy drop+halve shrinking reaches the singleton [10]. *)
        Alcotest.(check string) "minimal repro" "10" f.Fuzz.repro)
      fs

let test_crash_becomes_failure () =
  let crashing =
    Fuzz.oracle ~name:"crashing"
      ~generate:(fun rng -> Rng.int rng 100)
      ~test:(fun n -> if n >= 10 then failwith "boom" else Fuzz.Pass)
      ~shrink:(fun n -> if n > 10 then [ n / 2; n - 1 ] else [])
      ~repro:string_of_int
  in
  let r = Fuzz.run ~seed:5 ~count:50 ~oracles:[ crashing ] () in
  match Fuzz.failures r with
  | [] -> Alcotest.fail "crash not captured"
  | f :: _ ->
    Alcotest.(check string) "crash category" "crash" (Fuzz.category f.Fuzz.message);
    Alcotest.(check string) "shrunk to threshold" "10" f.Fuzz.repro

let test_verdict_helpers () =
  Alcotest.(check string) "category" "residual" (Fuzz.category "residual: ftran off");
  Alcotest.(check string) "no colon" "oops" (Fuzz.category "oops");
  (match Fuzz.run_test (fun _ -> failwith "kaput") () with
  | Fuzz.Fail msg -> Alcotest.(check string) "crash prefix" "crash" (Fuzz.category msg)
  | _ -> Alcotest.fail "exception not converted");
  match Fuzz.run_test (fun () -> Fuzz.Pass) () with
  | Fuzz.Pass -> ()
  | _ -> Alcotest.fail "pass not preserved"

(* Generators must produce structurally valid instances for any seed: no
   exceptions, invariants like matching array lengths and in-range tunnel
   endpoints hold. *)
let test_generators_well_formed () =
  let rng = Rng.create 99 in
  for _ = 1 to 200 do
    let t = Gen.lp_instance (Rng.split rng) in
    let n = Gen.lp_nvars t in
    Alcotest.(check int) "lb length" n (Array.length t.Gen.lb);
    Alcotest.(check int) "ub length" n (Array.length t.Gen.ub);
    Alcotest.(check int) "obj length" n (Array.length t.Gen.obj);
    List.iter
      (fun (r : Gen.lp_row) ->
        Alcotest.(check int) "row width" n (Array.length r.Gen.coeffs))
      t.Gen.rows;
    let lu = Gen.lu_instance (Rng.split rng) in
    Alcotest.(check bool) "lu column count" true (Array.length lu.Gen.cols <= lu.Gen.lu_m);
    let te = Gen.te_instance (Rng.split rng) in
    let input = Gen.te_input te in
    Alcotest.(check bool) "kc sane" true (te.Gen.kc >= 0);
    Alcotest.(check bool) "has topology" true
      (Ffc_net.Topology.num_links input.Ffc_core.Te_types.topo > 0);
    let sim = Gen.sim_instance (Rng.split rng) in
    ignore (Gen.te_input sim.Gen.sim_te)
  done

(* The composed campaign over the real oracles: a short seeded run must
   exercise every oracle and find nothing (regressions show up as findings
   here long before the CI smoke). *)
let test_real_oracles_clean_smoke () =
  let r = Fuzz.run ~seed:42 ~count:120 ~oracles:(Oracles.all ()) () in
  List.iter
    (fun (o : Fuzz.oracle_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s exercised (%d)" o.Fuzz.o_name o.Fuzz.exercised)
        true (o.Fuzz.exercised > 0);
      match o.Fuzz.findings with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "oracle %s found: %s@.%s" o.Fuzz.o_name f.Fuzz.min_message
          f.Fuzz.repro)
    r.Fuzz.oracles

(* The sharded campaign is bit-identical to the sequential one: same
   instance streams (pre-split RNGs), same findings (index-order replay
   with the same early-exit point), same shrunk repros. The synthetic
   oracle produces findings, so this exercises the cap logic too. *)
let test_parallel_identity_synthetic () =
  let report r =
    ( counts r,
      List.map
        (fun (f : Fuzz.finding) ->
          (f.Fuzz.f_index, f.Fuzz.message, f.Fuzz.min_message, f.Fuzz.repro))
        (Fuzz.failures r) )
  in
  let seq = report (Fuzz.run ~seed:7 ~count:60 ~oracles:[ synthetic_oracle ] ()) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let par =
            report (Fuzz.run ~pool:p ~seed:7 ~count:60 ~oracles:[ synthetic_oracle ] ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d matches sequential" jobs)
            true (par = seq)))
    [ 2; 3; 4 ]

let test_parallel_identity_real_oracles () =
  let seq = Fuzz.run ~seed:42 ~count:40 ~oracles:(Oracles.all ()) () in
  Pool.with_pool ~jobs:4 (fun p ->
      let par = Fuzz.run ~pool:p ~seed:42 ~count:40 ~oracles:(Oracles.all ()) () in
      Alcotest.(check bool) "full campaign identical" true
        (seq.Fuzz.oracles = par.Fuzz.oracles))

(* The campaign time budget, under a mock clock that advances one
   millisecond per oracle test call, instances and shrink attempts alike.
   Two oracles in listing order, the synthetic one and one that always
   passes, so the budget can run out inside either. *)
let ticks = Atomic.make 0

let ticking test x =
  Atomic.incr ticks;
  test x

let budget_oracles =
  [
    synthetic_oracle_with (ticking synthetic_test);
    Fuzz.oracle ~name:"pass"
      ~generate:(fun rng -> Rng.int rng 100)
      ~test:(ticking (fun _ -> Fuzz.Pass))
      ~shrink:(fun _ -> [])
      ~repro:string_of_int;
  ]

let budgeted ?pool ?time_budget_ms () =
  Atomic.set ticks 0;
  Ffc_util.Clock.with_hook
    (fun () -> float_of_int (Atomic.get ticks))
    (fun () -> Fuzz.run ?pool ~seed:7 ~count:60 ?time_budget_ms ~oracles:budget_oracles ())

(* Without a pool the budget is checked before every instance, and a
   finding is shrunk before the next instance starts. *)
let test_budget_sequential () =
  List.iter
    (fun (budget, expected) ->
      Alcotest.(check (list (pair string (pair int int))))
        (Printf.sprintf "budget %g ms: exercised, findings" budget)
        expected
        (List.map
           (fun (name, ex, _, nf) -> (name, (ex, nf)))
           (counts (budgeted ~time_budget_ms:budget ()))))
    [
      (10., [ ("synthetic", (1, 1)); ("pass", (0, 0)) ]);
      (20., [ ("synthetic", (2, 2)); ("pass", (0, 0)) ]);
      (100., [ ("synthetic", (3, 3)); ("pass", (49, 0)) ]);
    ]

(* With a pool, a budgeted report is a prefix of the unbudgeted one that
   ends on a chunk boundary: each oracle either ran as far as unbudgeted,
   or stopped at a multiple of the chunk (8 instances at 2 jobs) with its
   findings a prefix of the unbudgeted ones, and no later oracle ran. *)
let test_budget_pooled () =
  let chunk = 8 in
  let findings (o : Fuzz.oracle_report) =
    List.map (fun (f : Fuzz.finding) -> (f.Fuzz.f_index, f.Fuzz.min_message, f.Fuzz.repro))
      o.Fuzz.findings
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  Pool.with_pool ~jobs:2 (fun p ->
      let full = budgeted ~pool:p () in
      Alcotest.(check bool) "unbudgeted: same as without a pool" true
        (full.Fuzz.oracles = (budgeted ()).Fuzz.oracles);
      let truncated = ref 0 in
      List.iter
        (fun budget ->
          let r = budgeted ~pool:p ~time_budget_ms:budget () in
          let stopped = ref false in
          List.iter2
            (fun (o : Fuzz.oracle_report) (u : Fuzz.oracle_report) ->
              let n = o.Fuzz.exercised + o.Fuzz.skipped
              and nu = u.Fuzz.exercised + u.Fuzz.skipped in
              let label what = Printf.sprintf "budget %g ms, %s: %s" budget o.Fuzz.o_name what in
              if !stopped then Alcotest.(check int) (label "nothing after the stop") 0 n
              else if o = u then ()
              else begin
                stopped := true;
                if n > 0 && n < nu then incr truncated;
                Alcotest.(check int) (label "ends on a chunk boundary") 0 (n mod chunk);
                Alcotest.(check bool) (label "a prefix") true
                  (n <= nu && is_prefix (findings o) (findings u))
              end)
            r.Fuzz.oracles full.Fuzz.oracles)
        [ 5.; 20.; 60.; 100.; 120. ];
      Alcotest.(check bool) "some budget truncated an oracle mid-stream" true (!truncated > 0))

let test_oracle_selection () =
  (match Oracles.select [ "lp"; "sim" ] with
  | Ok os ->
    Alcotest.(check (list string)) "selected" [ "lp"; "sim" ] (List.map Fuzz.oracle_name os)
  | Error e -> Alcotest.fail e);
  match Oracles.select [ "nope" ] with
  | Ok _ -> Alcotest.fail "unknown oracle accepted"
  | Error _ -> ()

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [
      ( "runner",
        [
          case "deterministic per seed" test_runner_deterministic;
          case "seed changes the stream" test_seed_changes_stream;
          case "verdict helpers" test_verdict_helpers;
          case "crash captured as failure" test_crash_becomes_failure;
        ] );
      ("shrinking", [ case "category-preserving convergence" test_shrinker_converges ]);
      ( "budget",
        [
          case "stops at the same instance without a pool" test_budget_sequential;
          case "pooled report is a chunk-aligned prefix" test_budget_pooled;
        ] );
      ( "generators",
        [
          case "well-formed over many seeds" test_generators_well_formed;
        ] );
      ( "oracles",
        [
          case "seeded smoke is clean" test_real_oracles_clean_smoke;
          case "selection by name" test_oracle_selection;
        ] );
      ( "parallel",
        [
          case "sharded run bit-identical (synthetic)" test_parallel_identity_synthetic;
          case "sharded run bit-identical (real oracles)" test_parallel_identity_real_oracles;
        ] );
    ]
