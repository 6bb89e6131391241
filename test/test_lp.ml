(* Tests for the LP substrate: expression algebra, the revised simplex and
   the dense tableau oracle on hand-checked instances, and a randomised
   cross-check of the revised simplex against the oracle. *)

open Ffc_lp

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let test_expr_merge () =
  let e = Expr.(add (var 0) (add (var ~coeff:2. 1) (var ~coeff:3. 0))) in
  Alcotest.(check (list (pair int (float 1e-12))))
    "terms merged" [ (0, 4.); (1, 2.) ] (Expr.terms e)

let test_expr_eval () =
  let e = Expr.(sub (add (var ~coeff:2. 0) (const 5.)) (var 1)) in
  check_float "eval" 8. (Expr.eval (fun i -> if i = 0 then 2. else 1.) e)

let test_expr_scale_zero () =
  let e = Expr.(scale 0. (add (var 0) (const 7.))) in
  Alcotest.(check (list (pair int (float 1e-12)))) "no terms" [] (Expr.terms e);
  check_float "const 0" 0. (Expr.constant e)

(* [Expr.sum] is one pass: a fold of [add] copied the accumulated list at
   every step, 150 million minor words for these 10,000 summands. *)
let test_expr_sum () =
  let n = 10_000 in
  let es = List.init n (fun i -> Expr.var i) in
  let before = Gc.minor_words () in
  let e = Expr.sum es in
  let words = Gc.minor_words () -. before in
  if words > float_of_int (20 * n) then
    Alcotest.failf "%.0f minor words for %d summands, budget %d" words n (20 * n);
  Alcotest.(check int) "every term survives" n (List.length (Expr.terms e))

let test_expr_neg () =
  let e = Expr.(neg (add_term (const 3.) 2. 5)) in
  check_float "const" (-3.) (Expr.constant e);
  Alcotest.(check (list (pair int (float 1e-12)))) "terms" [ (5, -2.) ] (Expr.terms e)

(* Terms on one variable are summed in the order of the expression's term
   list ([add_term] puts its term first), and a sum of 0 is dropped. In
   floating point 1e16 + 1 = 1e16, so the order decides the result. *)
let test_expr_merge_order () =
  let of_list ts = List.fold_right (fun (i, c) e -> Expr.add_term e c i) ts Expr.zero in
  let exact = Alcotest.(list (pair int (float 0.))) in
  Alcotest.check exact "1e16, 1, -1e16 cancel" []
    (Expr.terms (of_list [ (0, 1e16); (0, 1.); (0, -1e16) ]));
  Alcotest.check exact "1e16, -1e16, 1 leave 1" [ (0, 1.) ]
    (Expr.terms (of_list [ (0, 1e16); (0, -1e16); (0, 1.) ]));
  Alcotest.check exact "other variables do not reorder a run" [ (0, 1.); (1, 5.) ]
    (Expr.terms (of_list [ (0, 1e16); (1, 5.); (0, -1e16); (0, 1.) ]))

(* ------------------------------------------------------------------ *)
(* Computational form                                                  *)
(* ------------------------------------------------------------------ *)

(* The computational form of rows given as [(terms, sense, rhs)]. *)
let problem_of_rows ?obj ~lb ~ub rows =
  let nstruct = Array.length lb in
  let terms = Array.of_list (List.concat_map (fun (ts, _, _) -> ts) rows) in
  let row_start = Array.make (List.length rows + 1) 0 in
  List.iteri (fun i (ts, _, _) -> row_start.(i + 1) <- row_start.(i) + List.length ts) rows;
  Problem.of_rows ~nstruct ~lb ~ub
    ~obj:(Option.value obj ~default:(Array.make nstruct 0.))
    ~nrows:(List.length rows)
    ~sense:(Array.of_list (List.map (fun (_, s, _) -> s) rows))
    ~rhs:(Array.of_list (List.map (fun (_, _, b) -> b) rows))
    ~row_start ~term_var:(Array.map fst terms) ~term_coef:(Array.map snd terms)

(* Columns come out sorted by row. A repeated (row, var) term is summed
   into one entry in input order (1e16, -1e16, 1 gives 1; in reverse order
   it gives 0), a pair that cancels leaves no entry, a zero term is
   ignored, and each slack is its row's implicit unit column, bounded by
   the row's sense. [Problem.rows] reads
   the same entries back by row, each row sorted by column. *)
let test_problem_columns () =
  let p =
    problem_of_rows ~lb:[| 0.; 0. |] ~ub:[| 1.; 1. |] ~obj:[| 1.; 1. |]
      [
        ([ (0, 1e16); (1, 4.); (0, -1e16); (0, 1.) ], Problem.Ge, 1.);
        ([ (1, 3.); (0, 2.); (1, -3.) ], Problem.Le, 5.);
        ([ (1, 7.); (0, 0.) ], Problem.Eq, 0.);
      ]
  in
  let rows = Alcotest.(array int) and vals = Alcotest.(array (float 0.)) in
  Alcotest.check rows "column starts" [| 0; 2; 4 |] p.Problem.col_start;
  Alcotest.check rows "x0 then x1 rows" [| 0; 1; 0; 2 |] p.Problem.row_idx;
  Alcotest.check vals "x0 then x1 values" [| 1.; 2.; 4.; 7. |] p.Problem.col_val;
  Alcotest.(check int) "slack columns" 5 p.Problem.ncols;
  Alcotest.check vals "slack lower bounds" [| neg_infinity; 0.; 0. |] (Array.sub p.Problem.lb 2 3);
  Alcotest.check vals "slack upper bounds" [| 0.; infinity; 0. |] (Array.sub p.Problem.ub 2 3);
  let { Problem.row_start; row_cols; row_vals } = Problem.rows p in
  Alcotest.check rows "row starts" [| 0; 2; 3; 4 |] row_start;
  Alcotest.check rows "row columns" [| 0; 1; 0; 1 |] row_cols;
  Alcotest.check vals "row values" [| 1.; 4.; 2.; 7. |] row_vals

(* [Problem.of_rows] rejects NaN input, the objective included: a NaN cost
   used to solve to [Optimal] with objective [nan]. *)
let test_problem_nan_objective () =
  let nan_objective = Invalid_argument "Problem.of_rows: NaN objective" in
  Alcotest.check_raises "Problem.of_rows" nan_objective (fun () ->
      ignore
        (problem_of_rows ~lb:[| 0. |] ~ub:[| 1. |] ~obj:[| nan |]
           [ ([ (0, 1.) ], Problem.Le, 1.) ]));
  let m = Model.create () in
  let x = Model.add_var m in
  Model.le m (Expr.var x) (Expr.const 1.);
  Model.maximize m (Expr.var ~coeff:nan x);
  Alcotest.check_raises "Model.solve" nan_objective (fun () -> ignore (Model.solve m))

(* A model row sums a repeated variable's coefficients in the order
   [Expr.terms] sums them for [lhs - rhs]; with the terms on the right,
   that is [e]'s list order. 1e16, -1e16, 1 leaves coefficient 1 and the
   row binds x; 1e16, 1, -1e16 cancels and the row drops x. Presolve, which
   turns the singleton row into a bound, must see the same row. *)
let test_model_repeated_variable () =
  List.iter
    (fun (coeffs, expect) ->
      let label = String.concat ", " (List.map (Printf.sprintf "%g") coeffs) in
      List.iter
        (fun presolve ->
          let m = Model.create () in
          let x = Model.add_var ~ub:10. m in
          let e = List.fold_right (fun c e -> Expr.add_term e c x) coeffs Expr.zero in
          Alcotest.(check (list (pair int (float 0.))))
            (label ^ ": merged terms")
            (if expect = 1. then [ (x, -1.) ] else [])
            (Expr.terms (Expr.sub (Expr.const 1.) e));
          Model.ge m (Expr.const 1.) e;
          Model.maximize m (Expr.var x);
          let sol =
            match Model.solve ~presolve m with
            | Model.Optimal s -> s
            | _ -> Alcotest.fail "expected optimal"
          in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s (presolve %b): x" label presolve)
            expect (Model.value sol x))
        [ true; false ])
    [ ([ 1e16; -1e16; 1. ], 1.); ([ 1e16; 1.; -1e16 ], 10.) ]

(* Malformed rows are rejected whether presolve runs or not: a NaN
   coefficient (alone in its row, which presolve would absorb into a
   bound), a NaN right-hand side, and variable 2 of a three-variable model
   in a model of one. *)
let test_model_malformed_rows () =
  let other = Model.create () in
  let foreign = List.nth (List.init 3 (fun _ -> Model.add_var other)) 2 in
  List.iter
    (fun (label, row) ->
      List.iter
        (fun presolve ->
          let m = Model.create () in
          let x = Model.add_var ~ub:1. m in
          Model.maximize m (Expr.var x);
          row m x;
          match Model.solve ~presolve m with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s (presolve %b): accepted" label presolve)
        [ true; false ])
    [
      ("NaN coefficient", fun m x -> Model.le m (Expr.var ~coeff:nan x) (Expr.const 1.));
      ("NaN rhs", fun m x -> Model.le m (Expr.var x) (Expr.const nan));
      ( "foreign variable",
        fun m x -> Model.le m (Expr.add (Expr.var x) (Expr.var foreign)) (Expr.const 1.) );
    ]

(* [Model.set_ub] rejects the bounds [Problem.of_rows] rejects, a NaN
   bound and one below the lower bound. A solve keeps the problem it
   assembled for the next one: a bound set after a solve must reach the
   next solve, and so must a row, a variable or an objective added after
   one. Each re-solve of one model along the steps below equals, bit for
   bit, a fresh model built with the same steps, with presolve on and
   off. *)
let test_model_set_ub () =
  let m = Model.create () in
  let x = Model.add_var ~lb:1. ~ub:10. m in
  List.iter
    (fun (label, ub) ->
      (match
         Problem.of_rows ~nstruct:1 ~lb:[| 1. |] ~ub:[| ub |] ~obj:[| 0. |] ~nrows:0 ~sense:[||]
           ~rhs:[||] ~row_start:[| 0 |] ~term_var:[||] ~term_coef:[||]
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: Problem.of_rows accepted it" label);
      match Model.set_ub m x ub with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: Model.set_ub accepted it" label)
    [ ("NaN bound", nan); ("ub below lb", 0.5) ];
  Model.set_ub m x 1.;
  Model.set_ub m x infinity;
  let steps =
    [
      ( (fun m ->
          let x = Model.add_var ~ub:10. m and y = Model.add_var ~ub:5. m in
          Model.le m Expr.(add (var x) (var y)) (Expr.const 12.);
          Model.maximize m Expr.(add (var x) (var y))),
        12. );
      ((fun m -> Model.set_ub m 0 3.), 8.);
      ((fun m -> Model.le m (Expr.var 1) (Expr.const 4.)), 7.);
      ( (fun m ->
          let z = Model.add_var ~ub:2. m in
          Model.maximize m Expr.(add (add (var 0) (var 1)) (var z))),
        9. );
      ((fun m -> Model.set_ub m 2 1.), 8.);
      ((fun m -> Model.set_ub m 0 infinity), 13.);
    ]
  in
  let solved presolve m =
    match Model.solve ~presolve m with
    | Model.Optimal s ->
      (Model.objective_value s, List.init (Model.num_vars m) (fun j -> Model.value s j))
    | _ -> Alcotest.fail "expected optimal"
  in
  List.iter
    (fun presolve ->
      let kept = Model.create () in
      List.iteri
        (fun k (step, expected) ->
          step kept;
          let fresh = Model.create () in
          List.iteri (fun i (step, _) -> if i <= k then step fresh) steps;
          let obj, xs = solved presolve kept in
          let label = Printf.sprintf "step %d (presolve %b)" k presolve in
          Alcotest.(check (float 0.)) (label ^ ": objective") expected obj;
          if (obj, xs) <> solved presolve fresh then
            Alcotest.failf "%s: re-solve differs from a fresh model" label)
        steps)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Hand-checked LPs on both solvers                                    *)
(* ------------------------------------------------------------------ *)

module Dense_tableau = Ffc_check.Dense_tableau

(* Both solvers' verdicts as [Dense_tableau.result]s: the revised
   simplex's ([Model.solve]) through [Dense_tableau.of_outcome]. *)
let revised ?presolve ?warm_start m =
  Dense_tableau.of_outcome m (Model.solve ?presolve ?warm_start m)

let status (r : Dense_tableau.result) = r.Dense_tableau.status
let objective (r : Dense_tableau.result) = r.Dense_tableau.objective
let value (r : Dense_tableau.result) v = r.Dense_tableau.x.(v)

let solvers =
  [ ("revised", fun m -> revised m); ("tableau", fun m -> Dense_tableau.solve m) ]

let solve_opt solve m =
  let r = solve m in
  match status r with
  | Problem.Optimal -> r
  | Problem.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Problem.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Problem.Iteration_limit -> Alcotest.fail "iteration limit"
  | Problem.Deadline_exceeded -> Alcotest.fail "unexpected deadline"

let test_basic_max solve () =
  (* max x + y st x + 2y <= 4, 3x + y <= 6 -> x = 8/5, y = 6/5, obj 14/5 *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.le m Expr.(add (var x) (var ~coeff:2. y)) (Expr.const 4.);
  Model.le m Expr.(add (var ~coeff:3. x) (var y)) (Expr.const 6.);
  Model.maximize m Expr.(add (var x) (var y));
  let s = solve_opt solve m in
  check_float "obj" 2.8 (objective s);
  check_float "x" 1.6 (value s x);
  check_float "y" 1.2 (value s y)

let test_min_with_ge solve () =
  (* min 2x + 3y st x + y >= 4, x <= 3 -> x = 3, y = 1, obj 9 *)
  let m = Model.create () in
  let x = Model.add_var ~ub:3. m and y = Model.add_var m in
  Model.ge m Expr.(add (var x) (var y)) (Expr.const 4.);
  Model.minimize m Expr.(add (var ~coeff:2. x) (var ~coeff:3. y));
  let s = solve_opt solve m in
  check_float "obj" 9. (objective s)

let test_equality solve () =
  (* max x st x + y = 5, y >= 2 -> x = 3 *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var ~lb:2. m in
  Model.eq m Expr.(add (var x) (var y)) (Expr.const 5.);
  Model.maximize m (Expr.var x);
  let s = solve_opt solve m in
  check_float "x" 3. (value s x)

let test_free_var solve () =
  (* min y st y >= x - 4, y >= -x, 0 <= x <= 10: optimum y = -2 at x = 2 *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10. m in
  let y = Model.add_var ~lb:neg_infinity m in
  Model.ge m (Expr.var y) Expr.(add_term (const (-4.)) 1. x);
  Model.ge m (Expr.var y) (Expr.var ~coeff:(-1.) x);
  Model.minimize m (Expr.var y);
  let s = solve_opt solve m in
  check_float "obj" (-2.) (objective s)

let test_fixed_var solve () =
  let m = Model.create () in
  let x = Model.add_var ~lb:2.5 ~ub:2.5 m and y = Model.add_var ~ub:4. m in
  Model.le m Expr.(add (var x) (var y)) (Expr.const 6.);
  Model.maximize m Expr.(add (var x) (var ~coeff:2. y));
  let s = solve_opt solve m in
  check_float "obj" 9.5 (objective s);
  check_float "x fixed" 2.5 (value s x)

let test_infeasible solve () =
  let m = Model.create () in
  let x = Model.add_var ~ub:3. m in
  Model.ge m (Expr.var x) (Expr.const 5.);
  Model.maximize m (Expr.var x);
  match status (solve m) with
  | Problem.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_infeasible_rows solve () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.eq m Expr.(add (var x) (var y)) (Expr.const 1.);
  Model.ge m Expr.(add (var x) (var y)) (Expr.const 2.);
  Model.maximize m (Expr.var x);
  match status (solve m) with
  | Problem.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded solve () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.ge m Expr.(add (var x) (var y)) (Expr.const 1.);
  Model.maximize m (Expr.var x);
  match status (solve m) with
  | Problem.Unbounded -> ()
  | Problem.Optimal -> Alcotest.fail "expected unbounded, got optimal"
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate solve () =
  (* Redundant constraints active at the optimum. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.le m Expr.(add (var x) (var y)) (Expr.const 2.);
  Model.le m Expr.(add (var ~coeff:2. x) (var ~coeff:2. y)) (Expr.const 4.);
  Model.le m (Expr.var x) (Expr.const 2.);
  Model.le m (Expr.var y) (Expr.const 2.);
  Model.maximize m Expr.(add (var x) (var y));
  let s = solve_opt solve m in
  check_float "obj" 2. (objective s)

let test_neg_rhs solve () =
  (* Constraint with negative rhs exercising artificial signs. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:neg_infinity m in
  Model.le m (Expr.var x) (Expr.const (-3.));
  Model.maximize m (Expr.var x);
  let s = solve_opt solve m in
  check_float "x" (-3.) (value s x)

let test_resolve solve () =
  (* Models stay usable: add a constraint, re-solve, objective tightens. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10. m in
  Model.maximize m (Expr.var x);
  let s1 = solve_opt solve m in
  check_float "first" 10. (objective s1);
  Model.le m (Expr.var x) (Expr.const 4.);
  let s2 = solve_opt solve m in
  check_float "second" 4. (objective s2)

let test_empty_objective solve () =
  (* Pure feasibility problem. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:2. m in
  Model.ge m (Expr.var x) (Expr.const 1.);
  let s = solve m in
  match status s with
  | Problem.Optimal ->
    let v = value s x in
    Alcotest.(check bool) "within bounds" true (v >= 1. -. 1e-9 && v <= 2. +. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Randomised cross-check                                              *)
(* ------------------------------------------------------------------ *)

type lp_spec = {
  nvars : int;
  cap_by_bounds : bool;
  objc : float list;
  rows : (float list * [ `Le | `Ge | `Eq ] * float) list;
}

let random_lp_gen =
  let open QCheck.Gen in
  let coeff = map (fun c -> float_of_int (c - 3)) (int_bound 6) in
  let* nvars = int_range 1 6 in
  let* nrows = int_range 1 8 in
  let* cap_by_bounds = bool in
  let* objc = list_repeat nvars coeff in
  let* rows =
    list_repeat nrows
      (let* terms = list_repeat nvars coeff in
       let* rhs = map (fun r -> float_of_int (r - 5)) (int_bound 20) in
       let* sense = oneofl [ `Le; `Ge; `Eq ] in
       return (terms, sense, rhs))
  in
  return { nvars; cap_by_bounds; objc; rows }

let build_random_lp spec =
  let m = Model.create () in
  let vars =
    List.init spec.nvars (fun _ ->
        if spec.cap_by_bounds then Model.add_var ~ub:10. m else Model.add_var m)
  in
  if not spec.cap_by_bounds then Model.le m (Expr.sum (List.map Expr.var vars)) (Expr.const 25.);
  List.iter
    (fun (terms, sense, rhs) ->
      let lhs = Expr.sum (List.map2 (fun v c -> Expr.var ~coeff:c v) vars terms) in
      let r = Expr.const rhs in
      match sense with
      | `Le -> Model.le m lhs r
      | `Ge -> Model.ge m lhs r
      | `Eq -> Model.eq m lhs r)
    spec.rows;
  Model.maximize m (Expr.sum (List.map2 (fun v c -> Expr.var ~coeff:c v) vars spec.objc));
  (m, vars)

let status_name = function
  | Problem.Optimal -> "optimal"
  | Problem.Infeasible -> "infeasible"
  | Problem.Unbounded -> "unbounded"
  | Problem.Iteration_limit -> "iterlimit"
  | Problem.Deadline_exceeded -> "deadline"

(* The revised simplex against the tableau oracle on one model: the same
   status, and objectives within [tol] when optimal; a budget status on
   either side discards the instance. *)
let solvers_agree ~tol m =
  let r1 = revised m and r2 = Dense_tableau.solve m in
  match (status r1, status r2) with
  | Problem.Iteration_limit, _ | _, Problem.Iteration_limit -> QCheck.assume_fail ()
  | Problem.Deadline_exceeded, _ | _, Problem.Deadline_exceeded -> QCheck.assume_fail ()
  | Problem.Optimal, Problem.Optimal -> abs_float (objective r1 -. objective r2) < tol
  | Problem.Infeasible, Problem.Infeasible | Problem.Unbounded, Problem.Unbounded -> true
  | a, b -> QCheck.Test.fail_reportf "status mismatch: %s vs %s" (status_name a) (status_name b)

let lp_arbitrary = QCheck.make ~print:(fun _ -> "<lp spec>") random_lp_gen

let prop_backends_agree =
  QCheck.Test.make ~count:400 ~name:"revised simplex agrees with tableau oracle" lp_arbitrary
    (fun spec -> solvers_agree ~tol:1e-5 (fst (build_random_lp spec)))

let prop_feasible =
  QCheck.Test.make ~count:400 ~name:"revised simplex solutions satisfy all constraints"
    lp_arbitrary (fun spec ->
      let m, vars = build_random_lp spec in
      match Model.solve m with
      | Model.Optimal s ->
        let xs = List.map (Model.value s) vars in
        let row_ok (terms, sense, rhs) =
          let v = List.fold_left2 (fun acc c x -> acc +. (c *. x)) 0. terms xs in
          match sense with
          | `Le -> v <= rhs +. 1e-6
          | `Ge -> v >= rhs -. 1e-6
          | `Eq -> abs_float (v -. rhs) <= 1e-6
        in
        let bounds_ok =
          List.for_all
            (fun x -> x >= -1e-9 && (not spec.cap_by_bounds || x <= 10. +. 1e-6))
            xs
        in
        bounds_ok && List.for_all row_ok spec.rows
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Presolve                                                             *)
(* ------------------------------------------------------------------ *)

let presolve ~lb ~ub rows = Presolve.reduce (problem_of_rows ~lb ~ub rows)

let test_presolve_singleton_rows () =
  let lb = [| 0.; 0. |] and ub = [| 10.; 10. |] in
  let rows =
    [
      ([ (0, 2.) ], Problem.Le, 8.); (* x0 <= 4 *)
      ([ (1, -1.) ], Problem.Le, -3.); (* x1 >= 3 *)
    ]
  in
  match presolve ~lb ~ub rows with
  | Presolve.Reduced { problem = p; kept } ->
    Alcotest.(check int) "rows absorbed" 0 p.Problem.nrows;
    Alcotest.(check int) "kept row set empty" 0 (Array.length kept);
    check_float "ub tightened" 4. p.Problem.ub.(0);
    check_float "lb tightened" 3. p.Problem.lb.(1)
  | Presolve.Infeasible m -> Alcotest.fail m

let test_presolve_fixed_propagation () =
  (* x0 = 5 (eq singleton) propagates into the second row, which becomes a
     singleton on x1 and tightens its bound. *)
  let lb = [| 0.; 0. |] and ub = [| 10.; 10. |] in
  let rows =
    [ ([ (0, 1.) ], Problem.Eq, 5.); ([ (0, 1.); (1, 1.) ], Problem.Le, 7.) ]
  in
  match presolve ~lb ~ub rows with
  | Presolve.Reduced { problem = p; _ } ->
    Alcotest.(check int) "all rows absorbed" 0 p.Problem.nrows;
    check_float "x0 fixed" 5. p.Problem.lb.(0);
    check_float "x0 fixed ub" 5. p.Problem.ub.(0);
    check_float "x1 ub" 2. p.Problem.ub.(1)
  | Presolve.Infeasible m -> Alcotest.fail m

(* Row 0 loses a fixed-variable term in each of two rounds: x0 is fixed by
   its bounds, and x1 by row 1, which becomes a singleton only once round 1
   has moved x0 out of it, after row 0 was simplified. Each round moves
   its terms to row 0's right-hand side: (1 - 0.1) - x1 is
   0.7000000000000001, one bit above the 0.7 that 1 - (0.1 + x1) gives.
   Row 2 holds no fixed variable and comes through as it is. *)
let test_presolve_second_round () =
  let lb = [| 0.1; 0.; 0.; 0. |] and ub = [| 0.1; 10.; 10.; 10. |] in
  let rows =
    [
      ([ (0, 1.); (1, 1.); (2, 1.); (3, 1.) ], Problem.Le, 1.);
      ([ (0, 1.); (1, 1.) ], Problem.Eq, 0.3);
      ([ (2, 1.); (3, -1.) ], Problem.Ge, -5.);
    ]
  in
  match presolve ~lb ~ub rows with
  | Presolve.Infeasible m -> Alcotest.fail m
  | Presolve.Reduced { problem = p; kept } ->
    let bits = Alcotest.(array int64) and exact = Alcotest.(array (float 0.)) in
    let x1 = 0.3 -. 0.1 in
    Alcotest.(check (array int)) "kept" [| 0; 2 |] kept;
    Alcotest.check exact "lb" [| 0.1; x1; 0.; 0. |] (Array.sub p.Problem.lb 0 4);
    Alcotest.check exact "ub" [| 0.1; x1; 10.; 10. |] (Array.sub p.Problem.ub 0 4);
    Alcotest.(check int64) "x1 bits" 0x3FC9999999999999L (Int64.bits_of_float x1);
    Alcotest.check exact "slack lb" [| 0.; neg_infinity |] (Array.sub p.Problem.lb 4 2);
    Alcotest.check exact "slack ub" [| infinity; 0. |] (Array.sub p.Problem.ub 4 2);
    Alcotest.check bits "rhs bits" [| 0x3FE6666666666667L; Int64.bits_of_float (-5.) |]
      (Array.map Int64.bits_of_float p.Problem.rhs);
    let { Problem.row_start; row_cols; row_vals } = Problem.rows p in
    Alcotest.(check (array int)) "row starts" [| 0; 2; 4 |] row_start;
    Alcotest.(check (array int)) "row columns" [| 2; 3; 2; 3 |] row_cols;
    Alcotest.check exact "row values" [| 1.; 1.; 1.; -1. |] row_vals

let test_presolve_detects_infeasible () =
  let lb = [| 0. |] and ub = [| 3. |] in
  let rows = [ ([ (0, 1.) ], Problem.Ge, 5.) ] in
  match presolve ~lb ~ub rows with
  | Presolve.Infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected infeasible"

let test_presolve_constant_row () =
  let lb = [| 2.; 2. |] and ub = [| 2.; 5. |] in
  (* x0 fixed at 2: row becomes 0 <= 1, satisfied and dropped. *)
  let rows = [ ([ (0, 1.) ], Problem.Le, 3.) ] in
  match presolve ~lb ~ub rows with
  | Presolve.Reduced { problem = p; _ } -> Alcotest.(check int) "dropped" 0 p.Problem.nrows
  | Presolve.Infeasible m -> Alcotest.fail m

let prop_presolve_preserves_solutions =
  QCheck.Test.make ~count:400 ~name:"presolve preserves status and optimum" lp_arbitrary
    (fun spec ->
      let m, _ = build_random_lp spec in
      let with_p = revised ~presolve:true m in
      let without_p = revised ~presolve:false m in
      match (status with_p, status without_p) with
      | Problem.Iteration_limit, _ | _, Problem.Iteration_limit -> QCheck.assume_fail ()
      | Problem.Deadline_exceeded, _ | _, Problem.Deadline_exceeded -> QCheck.assume_fail ()
      | Problem.Optimal, Problem.Optimal ->
        abs_float (objective with_p -. objective without_p) < 1e-5
      | Problem.Infeasible, Problem.Infeasible | Problem.Unbounded, Problem.Unbounded -> true
      | a, b ->
        QCheck.Test.fail_reportf "presolve changed status: %s vs %s" (status_name a)
          (status_name b))

(* Larger random instances: the tableau oracle is still tractable at this
   size, and degeneracy/cycling risks grow with dimension. *)
let larger_lp_gen =
  let open QCheck.Gen in
  let coeff = map (fun c -> float_of_int (c - 4)) (int_bound 8) in
  let* nvars = int_range 8 12 in
  let* nrows = int_range 10 16 in
  let* objc = list_repeat nvars coeff in
  let* rows =
    list_repeat nrows
      (let* terms = list_repeat nvars coeff in
       let* rhs = map (fun r -> float_of_int (r - 10)) (int_bound 40) in
       let* sense = oneofl [ `Le; `Ge; `Eq ] in
       return (terms, sense, rhs))
  in
  return { nvars; cap_by_bounds = true; objc; rows }

let prop_backends_agree_larger =
  QCheck.Test.make ~count:80 ~name:"backends agree on larger instances"
    (QCheck.make ~print:(fun _ -> "<larger lp>") larger_lp_gen)
    (fun spec -> solvers_agree ~tol:1e-4 (fst (build_random_lp spec)))

(* ------------------------------------------------------------------ *)
(* Sparse LU: FTRAN/BTRAN residuals under column-replacement updates   *)
(* ------------------------------------------------------------------ *)

(* The tests give columns as [(rows, values)] pairs, flattened at the call
   as the lu oracle does. *)
let factorise = Ffc_check.Oracles.factorise

(* Random strictly diagonally dominant sparse columns: guaranteed
   nonsingular, so [factorise] must succeed and the triangular solves can be
   checked against the dense matrix directly. *)
let random_dd_cols rng m =
  Array.init m (fun k ->
      let extras =
        List.init (Ffc_util.Rng.int rng 4) (fun _ ->
            (Ffc_util.Rng.int rng m, Ffc_util.Rng.uniform rng (-1.) 1.))
      in
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace tbl k (4. +. Ffc_util.Rng.uniform rng 0. 2.);
      List.iter
        (fun (r, v) ->
          if r <> k then
            Hashtbl.replace tbl r (v +. Option.value ~default:0. (Hashtbl.find_opt tbl r)))
        extras;
      let entries = Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl [] in
      (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries)))

(* Dense m x m matrix with input column k placed in basis slot
   [row_of_col.(k)]: the arrangement FTRAN/BTRAN solve against. *)
let dense_of_cols m cols row_of_col =
  let b = Array.make_matrix m m 0. in
  Array.iteri
    (fun k (rows, vals) ->
      let slot = row_of_col.(k) in
      Array.iteri (fun t r -> b.(r).(slot) <- vals.(t)) rows)
    cols;
  b

let residual_inf b x rhs =
  let m = Array.length b in
  let worst = ref 0. in
  for i = 0 to m - 1 do
    let s = ref 0. in
    for j = 0 to m - 1 do
      s := !s +. (b.(i).(j) *. x.(j))
    done;
    worst := max !worst (abs_float (!s -. rhs.(i)))
  done;
  !worst

let residual_inf_t b y rhs =
  let m = Array.length b in
  let worst = ref 0. in
  for j = 0 to m - 1 do
    let s = ref 0. in
    for i = 0 to m - 1 do
      s := !s +. (b.(i).(j) *. y.(i))
    done;
    worst := max !worst (abs_float (!s -. rhs.(j)))
  done;
  !worst

let test_sparse_lu_residuals () =
  let rng = Ffc_util.Rng.create 7 in
  let m = 60 in
  let cols = random_dd_cols rng m in
  match factorise ~m ~complete:false cols with
  | None -> Alcotest.fail "diagonally dominant matrix reported singular"
  | Some { Sparse_lu.lu; row_of_col; completed_rows; _ } ->
    Alcotest.(check (list int)) "full rank, nothing completed" [] completed_rows;
    let b = dense_of_cols m cols row_of_col in
    for _ = 1 to 20 do
      let rhs = Array.init m (fun _ -> Ffc_util.Rng.uniform rng (-5.) 5.) in
      let x = Array.copy rhs in
      Sparse_lu.ftran lu x;
      Alcotest.(check bool) "ftran residual" true (residual_inf b x rhs < 1e-8);
      let y = Array.copy rhs in
      Sparse_lu.btran lu y;
      Alcotest.(check bool) "btran residual" true (residual_inf_t b y rhs < 1e-8)
    done

(* Replace basis columns one at a time through [update] (the product-form
   eta path the simplex takes between refactorisations) and verify the
   factorisation still solves against the mutated dense matrix. *)
let test_sparse_lu_update_residuals () =
  let rng = Ffc_util.Rng.create 11 in
  let m = 50 in
  let cols = random_dd_cols rng m in
  match factorise ~m ~complete:false cols with
  | None -> Alcotest.fail "factorise failed"
  | Some { Sparse_lu.lu; row_of_col; _ } ->
    let b = dense_of_cols m cols row_of_col in
    let applied = ref 0 in
    for step = 1 to 30 do
      let r = Ffc_util.Rng.int rng m in
      (* New column: strong weight on slot r keeps the replacement
         well-conditioned. *)
      let a = Array.make m 0. in
      a.(r) <- 3. +. Ffc_util.Rng.uniform rng 0. 1.;
      for _ = 1 to Ffc_util.Rng.int rng 4 do
        let i = Ffc_util.Rng.int rng m in
        if i <> r then a.(i) <- Ffc_util.Rng.uniform rng (-0.5) 0.5
      done;
      let w = Array.copy a in
      Sparse_lu.ftran lu w;
      (* A tiny update pivot means the replacement is near-singular; the
         simplex refactorises in that case rather than stacking an
         ill-conditioned eta, so the residual contract only covers healthy
         pivots. *)
      if abs_float w.(r) > 1e-3 then begin
        incr applied;
        Sparse_lu.update lu ~r ~w;
        for i = 0 to m - 1 do
          b.(i).(r) <- a.(i)
        done;
        let rhs = Array.init m (fun _ -> Ffc_util.Rng.uniform rng (-5.) 5.) in
        let x = Array.copy rhs in
        Sparse_lu.ftran lu x;
        Alcotest.(check bool)
          (Printf.sprintf "ftran residual after %d updates (step %d)" !applied step)
          true
          (residual_inf b x rhs < 1e-6);
        let y = Array.copy rhs in
        Sparse_lu.btran lu y;
        Alcotest.(check bool)
          (Printf.sprintf "btran residual after %d updates (step %d)" !applied step)
          true
          (residual_inf_t b y rhs < 1e-6)
      end
    done;
    Alcotest.(check int) "eta file length" !applied (Sparse_lu.updates lu);
    Alcotest.(check bool)
      (Printf.sprintf "enough updates exercised (%d)" !applied)
      true (!applied >= 20)

(* Rank completion: feed fewer columns than rows with [~complete] and check
   the unpivoted rows behave as unit columns. *)
let test_sparse_lu_rank_completion () =
  let rng = Ffc_util.Rng.create 13 in
  let m = 20 in
  let full = random_dd_cols rng m in
  let cols = Array.sub full 0 12 in
  match factorise ~m ~complete:true cols with
  | None -> Alcotest.fail "completion failed"
  | Some { Sparse_lu.lu; row_of_col; completed_rows; _ } ->
    Alcotest.(check int) "completed count" (m - 12) (List.length completed_rows);
    let b = Array.make_matrix m m 0. in
    List.iter (fun r -> b.(r).(r) <- 1.) completed_rows;
    Array.iteri
      (fun k (rows, vals) ->
        let slot = row_of_col.(k) in
        Array.iteri (fun t r -> b.(r).(slot) <- vals.(t)) rows)
      cols;
    let rhs = Array.init m (fun _ -> Ffc_util.Rng.uniform rng (-3.) 3.) in
    let x = Array.copy rhs in
    Sparse_lu.ftran lu x;
    Alcotest.(check bool) "completed ftran residual" true (residual_inf b x rhs < 1e-8)

(* Singular and near-singular inputs must be rejected, not silently
   factorised into garbage. *)
let test_sparse_lu_rejects_singular () =
  let dup = ([| 0; 1 |], [| 1.; 2. |]) in
  let cols = [| dup; dup; ([| 2 |], [| 1. |]) |] in
  (match factorise ~m:3 ~complete:false cols with
  | None -> ()
  | Some _ -> Alcotest.fail "duplicate columns accepted");
  let tiny = [| ([| 0 |], [| 1e-13 |]); ([| 1 |], [| 1. |]) |] in
  match factorise ~m:2 ~complete:false tiny with
  | None -> ()
  | Some _ -> Alcotest.fail "sub-tolerance pivot accepted"

(* Repair mode: the kept columns in their pivot slots plus unit columns at
   the completed rows must form the basis the factors solve against, and
   every row must be covered exactly once. *)
let check_repaired ~m cols { Sparse_lu.lu; row_of_col; completed_rows; rejected } =
  let b = Array.make_matrix m m 0. and covered = Array.make m 0 in
  Array.iteri
    (fun k (rows, vals) ->
      if not (List.mem k rejected) then begin
        let slot = row_of_col.(k) in
        covered.(slot) <- covered.(slot) + 1;
        Array.iteri (fun t r -> b.(r).(slot) <- vals.(t)) rows
      end)
    cols;
  List.iter
    (fun r ->
      covered.(r) <- covered.(r) + 1;
      b.(r).(r) <- 1.)
    completed_rows;
  Alcotest.(check bool) "every row covered once" true (Array.for_all (( = ) 1) covered);
  List.iter
    (fun k -> Alcotest.(check int) "rejected column has no slot" (-1) row_of_col.(k))
    rejected;
  let rng = Ffc_util.Rng.create 5 in
  for _ = 1 to 10 do
    let rhs = Array.init m (fun _ -> Ffc_util.Rng.uniform rng (-3.) 3.) in
    let x = Array.copy rhs in
    Sparse_lu.ftran lu x;
    Alcotest.(check bool) "repaired ftran residual" true (residual_inf b x rhs < 1e-8);
    let y = Array.copy rhs in
    Sparse_lu.btran lu y;
    Alcotest.(check bool) "repaired btran residual" true (residual_inf_t b y rhs < 1e-8)
  done

(* Exactly one column of each dependent group must be rejected: which one
   follows the pivot order, but nothing outside the group may go. *)
let check_one_rejected_per_group rejected groups =
  Alcotest.(check int) "rejected count" (List.length groups) (List.length rejected);
  List.iter
    (fun g ->
      Alcotest.(check int)
        (Printf.sprintf "one rejected from {%s}" (String.concat "," (List.map string_of_int g)))
        1
        (List.length (List.filter (fun k -> List.mem k g) rejected)))
    groups

let add_cols (r1, v1) a (r2, v2) =
  let tbl = Hashtbl.create 8 in
  let put r v = Hashtbl.replace tbl r (v +. Option.value ~default:0. (Hashtbl.find_opt tbl r)) in
  Array.iteri (fun t r -> put r v1.(t)) r1;
  Array.iteri (fun t r -> put r (a *. v2.(t))) r2;
  let entries = Hashtbl.fold (fun r v acc -> (r, v) :: acc) tbl [] in
  (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries))

(* A warm basis mapped from another LP can carry more basic columns than
   rows, or a dependent set: repair mode skips the columns it cannot pivot,
   names them, and completes the rows left over. Without repair the same
   inputs stay errors. *)
let test_sparse_lu_repair () =
  let rng = Ffc_util.Rng.create 17 in
  let m = 12 in
  let base = random_dd_cols rng m in
  (* m + 2 columns: the m independent ones plus c0 + c1 and c2 - 3 c3. *)
  let over =
    Array.append base [| add_cols base.(0) 1. base.(1); add_cols base.(2) (-3.) base.(3) |]
  in
  (match factorise ~repair:true ~m ~complete:false over with
  | None -> Alcotest.fail "repair mode returned None (over-full)"
  | Some r ->
    check_one_rejected_per_group r.Sparse_lu.rejected [ [ 0; 1; m ]; [ 2; 3; m + 1 ] ];
    Alcotest.(check (list int)) "nothing completed" [] r.Sparse_lu.completed_rows;
    check_repaired ~m over r);
  Alcotest.check_raises "over-full without repair"
    (Invalid_argument "Sparse_lu.factorise: more columns than rows") (fun () ->
      ignore (factorise ~m ~complete:true over));
  (* A square singular set: c3 = c1 + c2. *)
  let square = Array.copy base in
  square.(3) <- add_cols base.(1) 1. base.(2);
  (match factorise ~repair:true ~m ~complete:false square with
  | None -> Alcotest.fail "repair mode returned None (singular)"
  | Some r ->
    check_one_rejected_per_group r.Sparse_lu.rejected [ [ 1; 2; 3 ] ];
    Alcotest.(check int) "one row completed" 1 (List.length r.Sparse_lu.completed_rows);
    check_repaired ~m square r);
  List.iter
    (fun complete ->
      match factorise ~m ~complete square with
      | None -> ()
      | Some _ -> Alcotest.failf "singular set accepted without repair (complete=%b)" complete)
    [ false; true ];
  (* Empty columns are rejected too, and a healthy basis loses nothing. *)
  (match factorise ~repair:true ~m:2 ~complete:false [| ([||], [||]); ([| 1 |], [| 1. |]) |] with
  | Some r ->
    Alcotest.(check (list int)) "empty column rejected" [ 0 ] r.Sparse_lu.rejected;
    Alcotest.(check (list int)) "its row completed" [ 0 ] r.Sparse_lu.completed_rows
  | None -> Alcotest.fail "repair mode returned None (empty column)");
  match factorise ~repair:true ~m ~complete:false base with
  | Some r -> Alcotest.(check (list int)) "healthy basis intact" [] r.Sparse_lu.rejected
  | None -> Alcotest.fail "repair mode returned None (healthy)"

(* Identity steps (no multipliers, no U entries, pivot 1) are skipped by
   the triangular solves, which is exact only because x /. 1. = x. A
   permutation of unit columns is all identity steps: each column pivots on
   its one entry, so in the slot convention the basis is the identity, and
   FTRAN and BTRAN must hand back the input bit for bit -- a -0.0 and a
   subnormal entry included. *)
let test_sparse_lu_unit_permutation () =
  let perm = [| 3; 0; 6; 1; 7; 2; 5; 4 |] in
  let m = Array.length perm in
  let cols = Array.map (fun r -> ([| r |], [| 1. |])) perm in
  match factorise ~m ~complete:false cols with
  | None -> Alcotest.fail "permutation of unit columns reported singular"
  | Some { Sparse_lu.lu; row_of_col; _ } ->
    Alcotest.(check (array int)) "each column pivots on its entry" perm row_of_col;
    let subnormal = Int64.float_of_bits 1L in
    let rhs = [| 1.5; -0.; subnormal; -2.25; 0.; 1e300; -7.; 0.1 |] in
    let bits = Array.map Int64.bits_of_float in
    let x = Array.copy rhs in
    Sparse_lu.ftran lu x;
    (* Column k's coefficient sits at its slot, the row of its entry. *)
    Array.iteri
      (fun k r ->
        Alcotest.(check int64) (Printf.sprintf "ftran column %d" k) (bits rhs).(r)
          (bits x).(row_of_col.(k)))
      perm;
    let y = Array.copy rhs in
    Sparse_lu.btran lu y;
    Alcotest.(check (array int64)) "btran returns its input" (bits rhs) (bits y)

(* A slack-heavy basis, shaped like a warm simplex basis: unit columns of
   value 1 and -1, some on rows that structural columns also touch, and
   structural columns whose pivot is exactly 1 above U entries (the unit
   columns pivot first, moving the structural entries on their rows into
   U). Residuals must stay small before and after column replacements that
   bring in more such columns. *)
let test_sparse_lu_slack_heavy () =
  let m = 10 in
  let unit r v = ([| r |], [| v |]) in
  let cols =
    [|
      unit 0 1.;
      unit 1 (-1.);
      unit 2 1.;
      unit 3 (-1.);
      unit 4 1.;
      ([| 2; 5 |], [| 0.5; 1. |]);
      ([| 3; 5; 6 |], [| 2.; -0.25; 1. |]);
      ([| 7; 8 |], [| 3.; 1. |]);
      ([| 7; 8; 9 |], [| 1.; 4.; 0.5 |]);
      ([| 0; 8; 9 |], [| 0.25; 1.; 2. |]);
    |]
  in
  match factorise ~m ~complete:false cols with
  | None -> Alcotest.fail "slack-heavy basis reported singular"
  | Some { Sparse_lu.lu; row_of_col; _ } ->
    let b = dense_of_cols m cols row_of_col in
    let rng = Ffc_util.Rng.create 23 in
    let check what =
      for _ = 1 to 5 do
        let rhs =
          Array.init m (fun _ ->
              if Ffc_util.Rng.bool rng then 0. else Ffc_util.Rng.uniform rng (-5.) 5.)
        in
        let x = Array.copy rhs in
        Sparse_lu.ftran lu x;
        Alcotest.(check bool) (what ^ ": ftran residual") true (residual_inf b x rhs < 1e-9);
        let y = Array.copy rhs in
        Sparse_lu.btran lu y;
        Alcotest.(check bool) (what ^ ": btran residual") true (residual_inf_t b y rhs < 1e-9)
      done
    in
    check "factorised";
    (* (slot, replacement column): unit columns of either sign, a column
       with pivot entry 1 and off-pivot entries, and a general one. *)
    let replacements =
      [
        (5, [ (5, -1.) ]);
        (0, [ (0, 1.); (3, 0.5) ]);
        (8, [ (8, 1.); (2, -2.); (9, 0.75) ]);
        (1, [ (1, 1.) ]);
        (6, [ (6, 2.5); (4, 1.); (7, -0.5) ]);
        (9, [ (9, -1.); (0, 0.125) ]);
      ]
    in
    List.iteri
      (fun i (r, entries) ->
        let a = Array.make m 0. in
        List.iter (fun (row, v) -> a.(row) <- v) entries;
        let w = Array.copy a in
        Sparse_lu.ftran lu w;
        Alcotest.(check bool) (Printf.sprintf "update %d pivot" i) true (abs_float w.(r) > 1e-3);
        Sparse_lu.update lu ~r ~w;
        for row = 0 to m - 1 do
          b.(row).(r) <- a.(row)
        done;
        check (Printf.sprintf "after %d updates" (i + 1)))
      replacements;
    Alcotest.(check int) "eta file length" (List.length replacements) (Sparse_lu.updates lu)

(* Degenerate shapes: duplicated rows, zero right-hand sides and parallel
   constraints produce heavily degenerate bases; the LU-backed revised
   simplex must still agree with the tableau oracle. *)
let degenerate_lp_gen =
  let open QCheck.Gen in
  let* spec = random_lp_gen in
  let* dup_mask = list_repeat (List.length spec.rows) bool in
  let* zero_mask = list_repeat (List.length spec.rows) bool in
  let rows =
    List.concat
      (List.map2
         (fun (terms, sense, rhs) (dup, zero) ->
           let rhs = if zero then 0. else rhs in
           let row = (terms, sense, rhs) in
           if dup then [ row; row ] else [ row ])
         spec.rows
         (List.combine dup_mask zero_mask))
  in
  return { spec with rows }

let prop_degenerate_backends_agree =
  QCheck.Test.make ~count:300 ~name:"backends agree on degenerate instances"
    (QCheck.make ~print:(fun _ -> "<degenerate lp>") degenerate_lp_gen)
    (fun spec -> solvers_agree ~tol:1e-5 (fst (build_random_lp spec)))

(* ------------------------------------------------------------------ *)
(* Warm starts                                                         *)
(* ------------------------------------------------------------------ *)

(* The same spec with every row's rhs shifted: identical column layout, so a
   basis snapshot from the original transfers (the next-TE-interval shape of
   reuse). *)
let perturb_spec delta spec =
  { spec with rows = List.map (fun (t, s, r) -> (t, s, r +. delta)) spec.rows }

let total_iters (s : Problem.solver_stats) =
  s.Problem.phase1_iterations + s.Problem.phase2_iterations

(* Warm-started and cold revised solves of the perturbed problem must agree
   with each other and with the dense tableau oracle: a warm basis changes
   the starting point, never the answer. *)
let prop_warm_agrees =
  QCheck.Test.make ~count:300 ~name:"warm-started solve agrees with cold and tableau oracle"
    lp_arbitrary (fun spec ->
      let m0, _ = build_random_lp spec in
      match Model.solve ~presolve:false m0 with
      | Model.Iteration_limit | Model.Deadline_exceeded -> QCheck.assume_fail ()
      | Model.Infeasible | Model.Unbounded -> true
      | Model.Optimal s0 -> (
        let basis = Model.solution_basis s0 in
        let spec' = perturb_spec 0.5 spec in
        let cold_m, _ = build_random_lp spec' in
        let warm_m, _ = build_random_lp spec' in
        let oracle_m, _ = build_random_lp spec' in
        let cold = revised ~presolve:false cold_m in
        let warm = revised ~presolve:false ~warm_start:basis warm_m in
        let oracle = Dense_tableau.solve ~presolve:false oracle_m in
        match (status cold, status warm, status oracle) with
        | Problem.Iteration_limit, _, _
        | _, Problem.Iteration_limit, _
        | _, _, Problem.Iteration_limit
        | Problem.Deadline_exceeded, _, _
        | _, Problem.Deadline_exceeded, _
        | _, _, Problem.Deadline_exceeded ->
          QCheck.assume_fail ()
        | Problem.Optimal, Problem.Optimal, Problem.Optimal ->
          abs_float (objective cold -. objective warm) < 1e-5
          && abs_float (objective warm -. objective oracle) < 1e-5
        | Problem.Infeasible, Problem.Infeasible, Problem.Infeasible
        | Problem.Unbounded, Problem.Unbounded, Problem.Unbounded ->
          true
        | a, b, c ->
          QCheck.Test.fail_reportf "status mismatch: cold %s / warm %s / oracle %s"
            (status_name a) (status_name b) (status_name c)))

(* [f ()] and the number of solves it resumed ([revised.resumes]). *)
let counting_resumes f =
  let module Obs = Ffc_obs.Obs in
  Obs.enable ~tracing:false ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let r = f () in
      match List.assoc_opt "revised.resumes" (Obs.snapshot ()) with
      | Some (Obs.Counter_v n) -> (r, int_of_float n)
      | _ -> Alcotest.fail "no revised.resumes counter")

(* New upper bounds for a random LP's variables (it has at most 6),
   [None] keeping a variable's bound: whole and half units from 0 to 12,
   or no bound. *)
let ub_moves =
  let open QCheck.Gen in
  let ub = oneof [ return infinity; map (fun k -> float_of_int k /. 2.) (int_bound 24) ] in
  QCheck.make ~print:QCheck.Print.(list (option float)) (list_repeat 6 (opt ub))

let move_ubs moves m vars =
  List.iteri
    (fun j v -> match List.nth moves j with Some ub -> Model.set_ub m v ub | None -> ())
    vars

(* A re-solve of the same model after [Model.set_ub] moved some upper
   bounds, warm from the basis its optimal solve returned, resumes that
   solve's state; it must agree with a cold rebuild that has the moved
   bounds from the start, and with the dense tableau. *)
let prop_resume_agrees =
  QCheck.Test.make ~count:300 ~name:"resumed re-solve after set_ub agrees with cold and tableau"
    (QCheck.pair lp_arbitrary ub_moves) (fun (spec, moves) ->
      let m, vars = build_random_lp spec in
      match Model.solve ~presolve:false m with
      | Model.Iteration_limit | Model.Deadline_exceeded -> QCheck.assume_fail ()
      | Model.Infeasible | Model.Unbounded -> true
      | Model.Optimal s0 -> (
        move_ubs moves m vars;
        let resumed, n =
          counting_resumes (fun () ->
              revised ~presolve:false ~warm_start:(Model.solution_basis s0) m)
        in
        if n <> 1 then QCheck.Test.fail_reportf "%d resumes, expected 1" n;
        let moved () =
          let m, vars = build_random_lp spec in
          move_ubs moves m vars;
          m
        in
        let cold = revised ~presolve:false (moved ()) in
        let oracle = Dense_tableau.solve ~presolve:false (moved ()) in
        match (status cold, status resumed, status oracle) with
        | Problem.Iteration_limit, _, _
        | _, Problem.Iteration_limit, _
        | _, _, Problem.Iteration_limit
        | Problem.Deadline_exceeded, _, _
        | _, Problem.Deadline_exceeded, _
        | _, _, Problem.Deadline_exceeded ->
          QCheck.assume_fail ()
        | Problem.Optimal, Problem.Optimal, Problem.Optimal ->
          abs_float (objective cold -. objective resumed) < 1e-5
          && abs_float (objective resumed -. objective oracle) < 1e-5
        | Problem.Infeasible, Problem.Infeasible, Problem.Infeasible
        | Problem.Unbounded, Problem.Unbounded, Problem.Unbounded ->
          true
        | a, b, c ->
          QCheck.Test.fail_reportf "status mismatch: cold %s / resumed %s / oracle %s"
            (status_name a) (status_name b) (status_name c)))

(* Maximise [3x + 2y] subject to [x + y <= 4] and [x + 3y <= 9], with
   [x <= 3] a bound [Model.set_ub] moves. At [x <= 3] the optimum is
   x = 3, y = 1 (objective 11), with x at its bound and y and the second
   row's slack basic; at [x <= 1] it is x = 1, y = 8/3 (objective 25/3),
   with the first row's slack basic in place of the second's. *)
let bounded_block () =
  let m = Model.create () in
  let x = Model.add_var ~ub:3. m and y = Model.add_var m in
  Model.le m (Expr.add (Expr.var x) (Expr.var y)) (Expr.const 4.);
  Model.le m (Expr.add (Expr.var x) (Expr.var ~coeff:3. y)) (Expr.const 9.);
  Model.maximize m (Expr.add (Expr.var ~coeff:3. x) (Expr.var ~coeff:2. y));
  (m, x, y)

let optimal what = function
  | Model.Optimal s -> s
  | _ -> Alcotest.failf "%s: not optimal" what

(* Only the basis the last optimal solve returned resumes: an older basis
   of the same model is factorised afresh, as any warm start is. *)
let test_resume_only_last_basis () =
  let m, x, _ = bounded_block () in
  let first = Model.solution_basis (optimal "first" (Model.solve ~presolve:false m)) in
  Model.set_ub m x 1.;
  let s, n = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:first m) in
  let s = optimal "resumed" s in
  Alcotest.(check int) "resumed" 1 n;
  check_float "objective at x <= 1" (25. /. 3.) (Model.objective_value s);
  let st = Model.solution_stats s in
  Alcotest.(check bool) "warm" true st.Problem.warm_started;
  Alcotest.(check string) "reason" "optimal" st.Problem.status_reason;
  Alcotest.(check int) "no refactorisation" 0 st.Problem.refactorisations;
  Alcotest.(check bool) "another basis" true (Model.solution_basis s <> first);
  Model.set_ub m x 3.;
  let s, n = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:first m) in
  let s = optimal "older basis" s in
  Alcotest.(check int) "older basis: not resumed" 0 n;
  check_float "objective at x <= 3" 11. (Model.objective_value s);
  let st = Model.solution_stats s in
  Alcotest.(check bool) "older basis: warm" true st.Problem.warm_started;
  Alcotest.(check int) "older basis: refactorised" 1 st.Problem.refactorisations

(* A row added since the last solve drops the kept problem and its
   state: the re-solve maps the basis onto the new layout by key. *)
let test_resume_not_after_new_row () =
  let m, _, y = bounded_block () in
  let basis = Model.solution_basis (optimal "first" (Model.solve ~presolve:false m)) in
  Model.le m (Expr.var y) (Expr.const 0.5);
  let s, n = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:basis m) in
  let s = optimal "re-solve" s in
  Alcotest.(check int) "not resumed" 0 n;
  check_float "objective" 10. (Model.objective_value s);
  let st = Model.solution_stats s in
  Alcotest.(check bool) "remapped" true st.Problem.warm_remapped;
  Alcotest.(check bool) "refactorised" true (st.Problem.refactorisations >= 1)

(* Bounds that leave no feasible point: the resumed dual phase finds no
   entering column and the solve falls back cold, which proves
   infeasibility and names the warm failure. A non-optimal solve keeps no
   state, so the next re-solve from the last optimal basis is a plain
   warm start. *)
let test_resume_falls_back_cold () =
  let m = Model.create () in
  let x = Model.add_var ~ub:3. m and y = Model.add_var ~ub:3. m in
  let sum = Expr.add (Expr.var x) (Expr.var y) in
  Model.le m sum (Expr.const 4.);
  Model.ge m sum (Expr.const 2.);
  Model.maximize m (Expr.add (Expr.var ~coeff:2. x) (Expr.var y));
  let basis = Model.solution_basis (optimal "first" (Model.solve ~presolve:false m)) in
  Model.set_ub m x 0.5;
  Model.set_ub m y 0.5;
  let outcome, n = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:basis m) in
  Alcotest.(check int) "resumed" 1 n;
  (match outcome with
  | Model.Infeasible ->
    let st = Option.get (Model.last_stats m) in
    Alcotest.(check int) "one restart" 1 st.Problem.restarts;
    Alcotest.(check bool) "cold" false st.Problem.warm_started;
    Alcotest.(check string) "reason"
      "infeasible (cold fallback: warm dual found no entering column)" st.Problem.status_reason
  | _ -> Alcotest.fail "expected Infeasible");
  Model.set_ub m x 3.;
  Model.set_ub m y 3.;
  let s, n = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:basis m) in
  let s = optimal "after the fallback" s in
  Alcotest.(check int) "after the fallback: not resumed" 0 n;
  check_float "objective" 7. (Model.objective_value s)

(* A cold solve of a dense LP leaves product-form etas with more nonzeros
   than its slack basis's factors, so the first resume refactorises, once,
   before its dual pivots. A resume with unchanged bounds pivots nothing,
   and refactorises only if the pivots before it filled the eta file; so
   a second such resume leaves the factorisation alone. *)
let test_resume_refactor_rule () =
  let rng = Ffc_util.Rng.create 42 in
  let nvars = 40 and nrows = 60 in
  let m = Model.create () in
  let vars = Array.init nvars (fun _ -> Model.add_var ~ub:50. m) in
  for i = 0 to nrows - 1 do
    let lhs =
      Expr.sum
        (Array.to_list (Array.map (fun v -> Expr.var ~coeff:(Ffc_util.Rng.uniform rng 0. 4.) v) vars))
    in
    Model.le m lhs (Expr.const (30. +. float_of_int (i mod 7)))
  done;
  Model.maximize m
    (Expr.sum
       (Array.to_list (Array.map (fun v -> Expr.var ~coeff:(Ffc_util.Rng.uniform rng 1. 5.) v) vars)));
  let cold = optimal "cold" (Model.solve ~presolve:false m) in
  Alcotest.(check int) "cold: one factorisation" 1
    (Model.solution_stats cold).Problem.refactorisations;
  Array.iteri (fun j v -> if j mod 3 = 0 then Model.set_ub m v 0.05) vars;
  let resume basis = counting_resumes (fun () -> Model.solve ~presolve:false ~warm_start:basis m) in
  let first, n = resume (Model.solution_basis cold) in
  let first = optimal "first resume" first in
  Alcotest.(check int) "first resume" 1 n;
  let st = Model.solution_stats first in
  Alcotest.(check int) "first resume: refactorised once" 1 st.Problem.refactorisations;
  Alcotest.(check bool) "first resume: pivoted" true (st.Problem.phase1_iterations > 0);
  let oracle = Dense_tableau.solve ~presolve:false m in
  check_float "first resume: tableau objective" (objective oracle) (Model.objective_value first);
  let unchanged what basis ~refactorisations =
    let s, n = resume basis in
    let s = optimal what s in
    Alcotest.(check int) what 1 n;
    let st = Model.solution_stats s in
    if st.Problem.refactorisations > refactorisations then
      Alcotest.failf "%s: %d refactorisations" what st.Problem.refactorisations;
    Alcotest.(check int) (what ^ ": no pivot") 0
      (st.Problem.phase1_iterations + st.Problem.phase2_iterations);
    check_float (what ^ ": same objective") (Model.objective_value first) (Model.objective_value s);
    Model.solution_basis s
  in
  let second = unchanged "second resume" (Model.solution_basis first) ~refactorisations:1 in
  ignore (unchanged "third resume" second ~refactorisations:0)

(* A structured instance large enough that cold phase 1 does real work; the
   basis of the base solve should carry the perturbed-rhs re-solve most of
   the way (measurably fewer total iterations, warm path accepted). *)
let test_warm_cuts_iterations () =
  let rng = Ffc_util.Rng.create 42 in
  let nvars = 40 and nrows = 60 in
  let coeffs =
    Array.init nrows (fun _ -> Array.init nvars (fun _ -> Ffc_util.Rng.uniform rng 0. 4.))
  in
  let objc = Array.init nvars (fun _ -> Ffc_util.Rng.uniform rng 1. 5.) in
  let build rhs_scale =
    let m = Model.create () in
    let vars = Array.init nvars (fun _ -> Model.add_var ~ub:50. m) in
    Array.iteri
      (fun i row ->
        let lhs =
          Expr.sum (Array.to_list (Array.mapi (fun j v -> Expr.var ~coeff:row.(j) v) vars))
        in
        Model.le m lhs (Expr.const (rhs_scale *. (30. +. float_of_int (i mod 7)))))
      coeffs;
    Model.maximize m
      (Expr.sum (Array.to_list (Array.mapi (fun j v -> Expr.var ~coeff:objc.(j) v) vars)));
    m
  in
  let base =
    match Model.solve ~presolve:false (build 1.0) with
    | Model.Optimal s -> s
    | _ -> Alcotest.fail "base solve not optimal"
  in
  let basis = Model.solution_basis base in
  let solve ?warm_start () =
    match Model.solve ~presolve:false ?warm_start (build 1.02) with
    | Model.Optimal s -> s
    | _ -> Alcotest.fail "perturbed solve not optimal"
  in
  let cold = solve () and warm = solve ~warm_start:basis () in
  check_float "optima agree"
    (Model.objective_value cold)
    (Model.objective_value warm);
  let cs = Model.solution_stats cold and ws = Model.solution_stats warm in
  Alcotest.(check bool) "warm path accepted" true ws.Problem.warm_started;
  Alcotest.(check bool)
    (Printf.sprintf "warm iterations %d < cold iterations %d" (total_iters ws) (total_iters cs))
    true
    (total_iters ws < total_iters cs)

(* A basis of the wrong shape must be dropped (recorded as a restart), not
   crash or corrupt the solve. *)
let test_warm_dimension_mismatch () =
  let m = Model.create () in
  let x = Model.add_var ~ub:5. m in
  Model.maximize m (Expr.var x);
  let bogus = Problem.basis_of_statuses (Array.make 3 Problem.Bs_lower) in
  match Model.solve ~presolve:false ~warm_start:bogus m with
  | Model.Optimal s ->
    check_float "objective" 5. (Model.objective_value s);
    let st = Model.solution_stats s in
    Alcotest.(check bool) "not warm started" false st.Problem.warm_started;
    Alcotest.(check bool) "mismatch recorded" true (st.Problem.restarts >= 1)
  | _ -> Alcotest.fail "expected optimal"

(* A perturbed warm re-solve big enough that the eta file passes the update
   limit: the warm path must survive an LU refactorisation mid-solve and
   still reach the oracle optimum. *)
let test_warm_survives_refactor () =
  let rng = Ffc_util.Rng.create 97 in
  let nvars = 120 and nrows = 160 in
  let coeffs =
    Array.init nrows (fun _ -> Array.init nvars (fun _ -> Ffc_util.Rng.uniform rng 0. 3.))
  in
  let build ~rhs_scale ~objw =
    let m = Model.create () in
    let vars = Array.init nvars (fun _ -> Model.add_var ~ub:20. m) in
    Array.iteri
      (fun i row ->
        let lhs =
          Expr.sum (Array.to_list (Array.mapi (fun j v -> Expr.var ~coeff:row.(j) v) vars))
        in
        Model.le m lhs (Expr.const (rhs_scale *. (25. +. float_of_int (i mod 5)))))
      coeffs;
    Model.maximize m
      (Expr.sum (Array.to_list (Array.mapi (fun j v -> Expr.var ~coeff:(objw j) v) vars)));
    m
  in
  let base =
    match Model.solve ~presolve:false (build ~rhs_scale:1.0 ~objw:(fun _ -> 1.)) with
    | Model.Optimal s -> s
    | _ -> Alcotest.fail "base solve not optimal"
  in
  let basis = Model.solution_basis base in
  (* Reweighting the objective (not just scaling the rhs, which leaves the
     old basis dual feasible) forces the warm solve through enough pivots to
     exhaust the eta-file update limit. *)
  let perturbed () = build ~rhs_scale:0.5 ~objw:(fun j -> 1. +. (2. *. float_of_int (j mod 4))) in
  match Model.solve ~presolve:false ~warm_start:basis (perturbed ()) with
  | Model.Optimal warm ->
    let ws = Model.solution_stats warm in
    Alcotest.(check bool) "warm accepted" true ws.Problem.warm_started;
    Alcotest.(check bool)
      (Printf.sprintf "refactorised at least twice (got %d)" ws.Problem.refactorisations)
      true
      (ws.Problem.refactorisations >= 2);
    let oracle = Dense_tableau.solve ~presolve:false (perturbed ()) in
    if status oracle <> Problem.Optimal then Alcotest.fail "oracle not optimal";
    check_float "matches oracle after refactor" (objective oracle) (Model.objective_value warm)
  | _ -> Alcotest.fail "warm solve not optimal"

(* Two models with the same variable count whose presolve reductions keep
   the same NUMBER of rows but a different row set. A basis is never reused
   by position across a different row set: the warm start maps A's basis
   onto B's columns by key, so B's kept row (its original row 1) must not
   inherit the status of A's kept row (original row 0), although both
   slacks sit at the same column position. *)
let test_warm_presolve_row_set_remap () =
  let build_a () =
    (* Row 0 kept, row 1 a singleton absorbed into bounds. *)
    let m = Model.create () in
    let x0 = Model.add_var ~ub:10. m in
    let x1 = Model.add_var ~ub:10. m in
    Model.le m (Expr.add (Expr.var x0) (Expr.var x1)) (Expr.const 10.);
    Model.le m (Expr.var x1) (Expr.const 3.);
    Model.maximize m (Expr.add (Expr.var ~coeff:2. x0) (Expr.var x1));
    m
  in
  let build_b () =
    (* Same variable count; now row 0 is the absorbed singleton and row 1 is
       kept -- same kept-row count, different row set. *)
    let m = Model.create () in
    let x0 = Model.add_var ~ub:10. m in
    let x1 = Model.add_var ~ub:10. m in
    Model.le m (Expr.var x0) (Expr.const 3.);
    Model.le m (Expr.add (Expr.var x0) (Expr.var x1)) (Expr.const 10.);
    Model.maximize m (Expr.add (Expr.var ~coeff:2. x0) (Expr.var x1));
    m
  in
  let basis =
    match Model.solve ~presolve:true (build_a ()) with
    | Model.Optimal s -> Model.solution_basis s
    | _ -> Alcotest.fail "model A not optimal"
  in
  (* Same-shaped re-solve takes the basis as it is... *)
  (match Model.solve ~presolve:true ~warm_start:basis (build_a ()) with
  | Model.Optimal s ->
    let st = Model.solution_stats s in
    Alcotest.(check bool) "same shape accepted" true st.Problem.warm_started;
    Alcotest.(check bool) "same shape not remapped" false st.Problem.warm_remapped
  | _ -> Alcotest.fail "re-solve of A not optimal");
  (* ...and the different reduction gets it mapped by key. *)
  match Model.solve ~presolve:true ~warm_start:basis (build_b ()) with
  | Model.Optimal s ->
    (* B's optimum: x0 = 3 (singleton bound), x1 = 7 (row keeps x0+x1 <= 10),
       objective 2*3 + 7 = 13. *)
    check_float "objective" 13. (Model.objective_value s);
    let st = Model.solution_stats s in
    Alcotest.(check bool) "warm started" true st.Problem.warm_started;
    Alcotest.(check bool) "remapped" true st.Problem.warm_remapped;
    (* Column 2 is the one slack: A's row 0, B's row 1. *)
    let keys_b = (Model.solution_basis s).Problem.keys in
    Alcotest.(check bool) "kept rows keyed apart" true
      (basis.Problem.keys.(2) <> keys_b.(2));
    let start, _ = Problem.remap_basis basis ~nstruct:2 ~keys:keys_b in
    Alcotest.(check bool) "A's row-0 slack is nonbasic" true
      (basis.Problem.statuses.(2) <> Problem.Bs_basic);
    Alcotest.(check bool) "B's row 1 starts with a basic slack" true
      (start.Problem.statuses.(2) = Problem.Bs_basic)
  | _ -> Alcotest.fail "model B not optimal"

(* [Problem.remap_basis]'s flat key table. A key the old basis holds twice
   maps to its last occurrence. Keys equal in their low bits (the bits that
   pick a slot) still find their own slots, and a key absent from the old
   basis probes past them to a new column's start: nonbasic at a bound for
   a structural column, a basic slack for a row. An identical layout is
   returned unchanged and not remapped. *)
let test_remap_flat_table () =
  let status =
    Alcotest.testable
      (fun fmt s ->
        Format.pp_print_string fmt
          (match s with
          | Problem.Bs_basic -> "basic"
          | Problem.Bs_lower -> "lower"
          | Problem.Bs_upper -> "upper"
          | Problem.Bs_free -> "free"))
      ( = )
  in
  let statuses = Alcotest.(array status) in
  let hi = 1 lsl 40 in
  let old =
    {
      Problem.statuses =
        [| Problem.Bs_basic; Problem.Bs_upper; Problem.Bs_free; Problem.Bs_lower; Problem.Bs_upper;
           Problem.Bs_basic |];
      keys = [| 7; 7 + hi; 7 + (2 * hi); 7; -9; 100 |];
    }
  in
  let remapped, moved =
    Problem.remap_basis old ~nstruct:4
      ~keys:[| 7 + (2 * hi); 7; 7 + (3 * hi); 7 + hi; 7 + (4 * hi); -9; 100 |]
  in
  Alcotest.(check bool) "remapped" true moved;
  Alcotest.check statuses "statuses by key"
    [|
      Problem.Bs_free (* 7 + 2hi *);
      Problem.Bs_lower (* 7: its last occurrence *);
      Problem.Bs_lower (* new structural *);
      Problem.Bs_upper (* 7 + hi *);
      Problem.Bs_basic (* new slack *);
      Problem.Bs_upper (* -9 *);
      Problem.Bs_basic (* 100 *);
    |]
    remapped.Problem.statuses;
  let same, moved = Problem.remap_basis old ~nstruct:4 ~keys:(Array.copy old.Problem.keys) in
  Alcotest.(check bool) "identical layout not remapped" false moved;
  Alcotest.check statuses "identical layout unchanged" old.Problem.statuses same.Problem.statuses

(* Warm re-solves by dual simplex. [blocks k ~cap ~weight] is [k] copies of
   one small LP: maximise [3x + weight y] subject to [x + y <= cap],
   [x + 3y <= 9] and [x <= 3] (a row, so presolve stays off). At [cap = 4],
   [weight = 2] the optimum is x = 3, y = 1 with basic x, y and the slack
   of the middle row; lowering [cap] to 2 leaves that basis dual feasible
   but puts y at -1. *)
let blocks k ~cap ~weight =
  let m = Model.create () in
  for _ = 1 to k do
    let x = Model.add_var m and y = Model.add_var m in
    Model.le m (Expr.add (Expr.var x) (Expr.var y)) (Expr.const cap);
    Model.le m (Expr.add (Expr.var x) (Expr.var ~coeff:3. y)) (Expr.const 9.);
    Model.le m (Expr.var x) (Expr.const 3.)
  done;
  Model.maximize m
    (Expr.sum
       (List.init (2 * k) (fun j -> Expr.var ~coeff:(if j mod 2 = 0 then 3. else weight) j)));
  m

let optimal_basis m =
  match Model.solve ~presolve:false m with
  | Model.Optimal s -> Model.solution_basis s
  | _ -> Alcotest.fail "base solve not optimal"

let dense_objective m =
  let r = Dense_tableau.solve ~presolve:false m in
  if status r <> Problem.Optimal then Alcotest.fail "dense tableau not optimal";
  objective r

(* Only right-hand sides move: the dual phase alone reaches the optimum,
   with no restart and nothing left for phase 2. *)
let test_dual_rhs_change () =
  let basis = optimal_basis (blocks 1 ~cap:4. ~weight:2.) in
  match Model.solve ~presolve:false ~warm_start:basis (blocks 1 ~cap:2. ~weight:2.) with
  | Model.Optimal s ->
    let st = Model.solution_stats s in
    Alcotest.(check bool) "warm started" true st.Problem.warm_started;
    Alcotest.(check int) "no restart" 0 st.Problem.restarts;
    Alcotest.(check bool) "dual pivots" true (st.Problem.phase1_iterations > 0);
    Alcotest.(check int) "no phase-2 pivot" 0 st.Problem.phase2_iterations;
    check_float "tableau objective" (dense_objective (blocks 1 ~cap:2. ~weight:2.))
      (Model.objective_value s)
  | _ -> Alcotest.fail "warm re-solve not optimal"

(* The objective moves too: at [weight = 12] the old basis is dual
   infeasible (the slack of [x <= 3] has reduced cost -9 at its lower
   bound), so the dual phase starts from a shifted cost and phase 2 takes
   the shift out again. *)
let test_dual_cost_shift () =
  let basis = optimal_basis (blocks 1 ~cap:4. ~weight:2.) in
  let changed () = blocks 1 ~cap:2. ~weight:12. in
  let cold =
    match Model.solve ~presolve:false (changed ()) with
    | Model.Optimal s -> Model.objective_value s
    | _ -> Alcotest.fail "cold solve not optimal"
  in
  match Model.solve ~presolve:false ~warm_start:basis (changed ()) with
  | Model.Optimal s ->
    let st = Model.solution_stats s in
    Alcotest.(check bool) "warm started" true st.Problem.warm_started;
    Alcotest.(check int) "no restart" 0 st.Problem.restarts;
    Alcotest.(check bool) "dual pivots" true (st.Problem.phase1_iterations > 0);
    Alcotest.(check bool) "phase 2 removes the shift" true (st.Problem.phase2_iterations > 0);
    check_float "cold objective" cold (Model.objective_value s);
    check_float "tableau objective" (dense_objective (changed ())) (Model.objective_value s)
  | _ -> Alcotest.fail "warm re-solve not optimal"

(* A right-hand side no point satisfies: the dual phase finds no entering
   column, the warm attempt ends, and the cold solve proves infeasibility. *)
let test_dual_infeasible_falls_back () =
  let basis = optimal_basis (blocks 1 ~cap:4. ~weight:2.) in
  let m = blocks 1 ~cap:(-1.) ~weight:2. in
  match Model.solve ~presolve:false ~warm_start:basis m with
  | Model.Infeasible ->
    let st = Option.get (Model.last_stats m) in
    Alcotest.(check int) "one restart" 1 st.Problem.restarts;
    Alcotest.(check bool) "cold" false st.Problem.warm_started;
    Alcotest.(check string) "reason"
      "infeasible (cold fallback: warm dual found no entering column)"
      st.Problem.status_reason
  | _ -> Alcotest.fail "expected Infeasible"

(* Twenty blocks need twenty dual pivots. A clock that advances a
   millisecond per reading lets the first deadline check pass and a later
   one fail, so the budget runs out between dual pivots. *)
let test_dual_deadline () =
  let basis = optimal_basis (blocks 20 ~cap:4. ~weight:2.) in
  let m = blocks 20 ~cap:2. ~weight:2. in
  let now = ref 0. in
  let outcome =
    Ffc_util.Clock.with_hook
      (fun () ->
        now := !now +. 1.;
        !now)
      (fun () -> Model.solve ~presolve:false ~deadline_ms:10. ~warm_start:basis m)
  in
  match outcome with
  | Model.Deadline_exceeded ->
    let st = Option.get (Model.last_stats m) in
    Alcotest.(check string) "reason" "deadline (warm dual)" st.Problem.status_reason;
    Alcotest.(check bool) "cut between dual pivots" true
      (st.Problem.phase1_iterations > 0 && st.Problem.phase1_iterations < 20)
  | _ -> Alcotest.fail "expected Deadline_exceeded"

(* Keys must never collide across kinds or scopes: a variable and a row
   ordinal 0 of the root and of child scope 0 (the case a naive mixer maps
   to one key), nested scopes, and a scope re-entered after siblings. *)
let test_keys_distinct () =
  let m = Model.create () in
  let v () = Model.add_var ~ub:1. m in
  let row xs = Model.le m (Expr.sum (List.map Expr.var xs)) (Expr.const 1.) in
  let x0 = v () and x1 = v () in
  row [ x0 ];
  row [ x1 ];
  Model.scope m 0 (fun () ->
      let y0 = v () in
      row [ y0; x0 ];
      Model.scope m 0 (fun () -> row [ v (); x1 ]));
  Model.scope m 1 (fun () -> row [ v (); v () ]);
  let z = v () in
  row [ z; x0 ];
  Model.maximize m (Expr.sum (List.init (Model.num_vars m) Expr.var));
  match Model.solve ~presolve:false m with
  | Model.Optimal s ->
    let keys = (Model.solution_basis s).Problem.keys in
    Alcotest.(check int) "one key per column" (Model.num_vars m + Model.num_constraints m)
      (Array.length keys);
    Alcotest.(check int) "all keys distinct" (Array.length keys)
      (List.length (List.sort_uniq compare (Array.to_list keys)))
  | _ -> Alcotest.fail "not optimal"

(* Regression: a column whose explicit-zero values are all filtered out has
   [len = 0] after ingestion; [factorise] must report the basis singular
   instead of crashing on the empty column (originally an out-of-bounds
   access). *)
let test_sparse_lu_zero_length_column () =
  let zero_col = [| ([| 0 |], [| 0. |]); ([| 1 |], [| 1. |]) |] in
  (match factorise ~m:2 ~complete:false zero_col with
  | None -> ()
  | Some _ -> Alcotest.fail "explicit-zero column accepted");
  let empty_col = [| ([||], [||]); ([| 1 |], [| 1. |]) |] in
  (match factorise ~m:2 ~complete:false empty_col with
  | None -> ()
  | Some _ -> Alcotest.fail "empty column accepted");
  (* Rank completion patches uncovered *rows* with unit columns, but a
     supplied zero-length column is singular under either mode. *)
  (match factorise ~m:2 ~complete:true zero_col with
  | None -> ()
  | Some _ -> Alcotest.fail "explicit-zero column accepted (complete)");
  (match factorise ~m:2 ~complete:true [| ([| 1 |], [| 1. |]) |] with
  | Some { Sparse_lu.completed_rows = [ _ ]; _ } -> ()
  | Some _ -> Alcotest.fail "expected exactly one completed row"
  | None -> Alcotest.fail "under-complete basis should be rank-completed");
  (* Each domain's scratch is grown and reset from call to call: factors
     made on this domain's reused scratch, after a smaller call, solve bit
     for bit as those made on a new domain's fresh one. *)
  let m = 40 in
  let cols = random_dd_cols (Ffc_util.Rng.create 11) m in
  let solve () =
    match factorise ~m ~complete:false cols with
    | Some { Sparse_lu.lu; _ } ->
      let w = Array.init m float_of_int in
      Sparse_lu.ftran lu w;
      Array.map Int64.bits_of_float w
    | None -> Alcotest.fail "dominant matrix rejected"
  in
  let fresh = Domain.join (Domain.spawn solve) in
  ignore (factorise ~m:2 ~complete:false zero_col);
  Alcotest.(check (array int64)) "reused scratch, same factors" fresh (solve ())

(* Fuzzer-found solver regressions. Each of these once made a solver return
   a wrong verdict or an infeasible "optimal" point; the harness in
   lib/check shrank them to these instances. The assertions are
   invariants -- right status class, no macroscopic constraint violation --
   rather than exact objective values, because the instances are built
   around 1e-7-scale coefficients where exact optima sit at the edge of
   solver tolerance. *)

let build_instance lb ub obj rows =
  let m = Model.create () in
  let xs = Array.init (Array.length obj) (fun j -> Model.add_var ~lb:lb.(j) ~ub:ub.(j) m) in
  let expr_of cs =
    let e = ref Expr.zero in
    Array.iteri (fun j c -> if c <> 0. then e := Expr.add_term !e c xs.(j)) cs;
    !e
  in
  List.iter
    (fun (cs, s, rhs) ->
      (match s with -1 -> Model.le | 0 -> Model.eq | _ -> Model.ge) m (expr_of cs)
        (Expr.const rhs))
    rows;
  Model.maximize m (expr_of obj);
  (m, xs)

let max_violation rows x =
  List.fold_left
    (fun acc (cs, s, rhs) ->
      let lhs = ref 0. in
      Array.iteri (fun j c -> lhs := !lhs +. (c *. x.(j))) cs;
      let v =
        match s with
        | -1 -> !lhs -. rhs
        | 1 -> rhs -. !lhs
        | _ -> abs_float (!lhs -. rhs)
      in
      max acc v)
    0. rows

(* Phase 1 of the dense tableau used to interpret a noise column (negative
   reduced cost, no usable pivot row, both left behind by an earlier pivot
   on a 1e-7 element) as an unbounded ray and report a feasible instance
   [Infeasible]. *)
let test_dense_noise_column_not_infeasible () =
  let rows =
    [
      ([| 1e-7; 3.; -4.; 0. |], 0, -2.);
      ([| 3.; 4.; 0.; 1. |], 1, 3.875);
      ([| 2.; -4.; -1.; -3. |], -1, -1.875);
      ([| 0.; 3.; -4.; 0. |], 0, -2.);
    ]
  in
  let m, _ =
    build_instance [| 0.; 0.; 0.; 0. |] [| 5.; 5.; 8.; 2. |] [| 2.; -3.; 1.; 4. |] rows
  in
  match status (Dense_tableau.solve m) with
  | Problem.Optimal -> ()
  | o ->
    Alcotest.failf "feasible instance reported %s"
      (match o with
      | Problem.Infeasible -> "infeasible"
      | Problem.Unbounded -> "unbounded"
      | _ -> "budget-limited")

(* An unbounded ray that requires stepping over a genuine 1e-7 data
   coefficient: the tiny-pivot safeguard must treat such columns as usable
   (as a last resort), not silently stop at a bounded vertex. *)
let test_dense_tiny_data_ray_unbounded () =
  let rows = [ ([| 1e-7; 3. |], -1, 7.) ] in
  let m, _ =
    build_instance [| neg_infinity; 0. |] [| infinity; 7. |] [| -4.; 2. |] rows
  in
  if status (Dense_tableau.solve m) <> Problem.Unbounded then
    Alcotest.fail "dense missed the unbounded ray";
  match Model.solve m with
  | Model.Unbounded -> ()
  | _ -> Alcotest.fail "revised missed the unbounded ray"

(* After a tolerance-accepted phase 1 the artificial of a near-duplicate
   equality row can stay basic at a ~1e-7 residual; driving it out by
   pivoting on a same-order entry used to hand a structural variable the
   quotient of the two (a macroscopic negative value, e.g. x1 = -1). *)
let test_dense_drive_out_respects_bounds () =
  let rows = [ ([| -0.9999999; 3. |], 0, -3.); ([| -1.; 3. |], 0, -3.) ] in
  let m, xs = build_instance [| 0.; 0. |] [| 3.; infinity |] [| 0.; 0. |] rows in
  let s = Dense_tableau.solve m in
  match status s with
  | Problem.Optimal ->
    Array.iter
      (fun x ->
        let v = value s x in
        Alcotest.(check bool)
          (Printf.sprintf "in bounds (got %g)" v)
          true
          (v >= -1e-6))
      xs
  | _ -> Alcotest.fail "tolerance-feasible instance not optimal"

(* A degenerate phase-2 pivot onto a near-singular basis leaves recomputed
   basic values far out of bounds; the revised simplex used to report that
   point as [Optimal] (violating a <= row by 1.33) because it only checked
   dual optimality at termination. Any claimed optimum must now satisfy the
   rows; an honest budget status is also acceptable on this
   tolerance-ambiguous instance. *)
let test_revised_phase2_primal_feasibility () =
  let rows =
    [ ([| -2.9999999; 3. |], 0, 5.); ([| 0.; 2. |], -1, 2.); ([| -3.; 3. |], 0, 5.) ]
  in
  let lb = [| neg_infinity; 0. |] and ub = [| 6.; infinity |] in
  let obj = [| -2.; -3. |] in
  List.iter
    (fun presolve ->
      let m, xs = build_instance lb ub obj rows in
      match Model.solve ~presolve m with
      | Model.Optimal s ->
        let x = Array.map (Model.value s) xs in
        let v = max_violation rows x in
        Alcotest.(check bool)
          (Printf.sprintf "claimed optimum feasible (violation %g)" v)
          true (v <= 1e-5)
      | _ -> () (* infeasible / budget verdicts are honest here *))
    [ true; false ]

let test_printers () =
  let m = Model.create () in
  let x = Model.add_var m in
  let e = Format.asprintf "%a" Expr.pp (Expr.add (Expr.var ~coeff:2. x) (Expr.const 3.)) in
  Alcotest.(check bool) "expr printed" true (String.length e > 0)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let per_solver name f =
    List.map (fun (sname, solve) -> case (Printf.sprintf "%s (%s)" name sname) (f solve)) solvers
  in
  Alcotest.run "lp"
    [
      ( "expr",
        [
          case "terms merge" test_expr_merge;
          case "eval" test_expr_eval;
          case "scale by zero" test_expr_scale_zero;
          case "sum of many" test_expr_sum;
          case "negation" test_expr_neg;
          case "terms merge in list order" test_expr_merge_order;
        ] );
      ( "problem",
        [
          case "columns by counting sort" test_problem_columns;
          case "NaN objective rejected" test_problem_nan_objective;
        ] );
      ( "model",
        [
          case "repeated variable merged in term order" test_model_repeated_variable;
          case "malformed rows rejected" test_model_malformed_rows;
          case "set_ub and additions reach the next solve" test_model_set_ub;
        ] );
      ( "simplex",
        List.concat
          [
            per_solver "basic max" test_basic_max;
            per_solver "min with >=" test_min_with_ge;
            per_solver "equality" test_equality;
            per_solver "free variable" test_free_var;
            per_solver "fixed variable" test_fixed_var;
            per_solver "infeasible bounds" test_infeasible;
            per_solver "infeasible rows" test_infeasible_rows;
            per_solver "unbounded" test_unbounded;
            per_solver "degenerate" test_degenerate;
            per_solver "negative rhs" test_neg_rhs;
            per_solver "re-solve" test_resolve;
            per_solver "pure feasibility" test_empty_objective;
          ] );
      ( "presolve",
        [
          case "singleton rows become bounds" test_presolve_singleton_rows;
          case "fixed variables propagate" test_presolve_fixed_propagation;
          case "fixed terms leave a row over two rounds" test_presolve_second_round;
          case "detects infeasibility" test_presolve_detects_infeasible;
          case "drops satisfied constant rows" test_presolve_constant_row;
          QCheck_alcotest.to_alcotest prop_presolve_preserves_solutions;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_feasible;
          QCheck_alcotest.to_alcotest prop_backends_agree_larger;
          QCheck_alcotest.to_alcotest prop_degenerate_backends_agree;
        ] );
      ( "sparse-lu",
        [
          case "triangular solve residuals" test_sparse_lu_residuals;
          case "residuals under column updates" test_sparse_lu_update_residuals;
          case "rank completion" test_sparse_lu_rank_completion;
          case "rejects singular bases" test_sparse_lu_rejects_singular;
          case "zero-length columns" test_sparse_lu_zero_length_column;
          case "repair skips dependent columns" test_sparse_lu_repair;
          case "unit permutation solves bit for bit" test_sparse_lu_unit_permutation;
          case "slack-heavy basis under updates" test_sparse_lu_slack_heavy;
        ] );
      ( "fuzz-regressions",
        [
          case "noise column is not an unbounded ray" test_dense_noise_column_not_infeasible;
          case "tiny data coefficient ray" test_dense_tiny_data_ray_unbounded;
          case "artificial drive-out respects bounds" test_dense_drive_out_respects_bounds;
          case "phase-2 optimum is primal feasible" test_revised_phase2_primal_feasibility;
        ] );
      ( "warm-start",
        [
          QCheck_alcotest.to_alcotest prop_warm_agrees;
          case "basis reuse cuts iterations" test_warm_cuts_iterations;
          case "dimension mismatch falls back" test_warm_dimension_mismatch;
          case "warm survives LU refactorisation" test_warm_survives_refactor;
          case "row-set change remaps by key" test_warm_presolve_row_set_remap;
          case "remap's flat key table" test_remap_flat_table;
          case "keys distinct across kinds and scopes" test_keys_distinct;
          case "dual re-solve after a rhs change" test_dual_rhs_change;
          case "dual re-solve shifts dual-infeasible costs" test_dual_cost_shift;
          case "dual re-solve of an infeasible rhs falls back cold" test_dual_infeasible_falls_back;
          case "deadline inside the dual phase" test_dual_deadline;
          QCheck_alcotest.to_alcotest prop_resume_agrees;
          case "only the last basis resumes" test_resume_only_last_basis;
          case "a new row stops a resume" test_resume_not_after_new_row;
          case "a resume falls back cold" test_resume_falls_back_cold;
          case "a full eta file refactorises once" test_resume_refactor_rule;
        ] );
      ("printers", [ case "expression printer" test_printers ]);
    ]
