(* Tests for the bounded M-sum LP encodings. They are checked for
   *tightness* (optimising the returned expression recovers the exact
   partial sum) and *soundness* (bounding it enforces the bound on every
   subset), against brute-force reference computations. *)

open Ffc_lp
module Bs = Ffc_sortnet.Bounded_sum

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Bounded M-sum LP encodings                                          *)
(* ------------------------------------------------------------------ *)

let encodings = [ ("network", `Sorting_network); ("duality", `Duality) ]

(* Tightness: with xs fixed to constants, minimising sum_largest gives the
   true sum of the m largest; maximising sum_smallest the true sum of the m
   smallest. *)
let check_tight encoding values m =
  let mdl = Model.create () in
  let xs = List.map (fun v -> Expr.const v) values in
  (* Fixed variables also exercise the encoding on variables, not constants. *)
  let xs_vars =
    List.map
      (fun v ->
        let x = Model.add_var ~lb:neg_infinity mdl in
        Model.eq mdl (Expr.var x) (Expr.const v);
        Expr.var x)
      values
  in
  ignore xs;
  let y = Bs.sum_largest ~encoding mdl xs_vars m in
  Model.minimize mdl y;
  (match Model.solve mdl with
  | Model.Optimal s ->
    check_float
      (Printf.sprintf "largest m=%d" m)
      (Bs.value_sum_largest values m) (Model.objective_value s)
  | _ -> Alcotest.fail "expected optimal (largest)");
  let mdl2 = Model.create () in
  let xs_vars2 =
    List.map
      (fun v ->
        let x = Model.add_var ~lb:neg_infinity mdl2 in
        Model.eq mdl2 (Expr.var x) (Expr.const v);
        Expr.var x)
      values
  in
  let y2 = Bs.sum_smallest ~encoding mdl2 xs_vars2 m in
  Model.maximize mdl2 y2;
  match Model.solve mdl2 with
  | Model.Optimal s ->
    check_float
      (Printf.sprintf "smallest m=%d" m)
      (Bs.value_sum_smallest values m) (Model.objective_value s)
  | _ -> Alcotest.fail "expected optimal (smallest)"

let test_tightness encoding () =
  List.iter
    (fun (values, m) -> check_tight encoding values m)
    [
      ([ 3.; 1.; 4.; 1.5 ], 2);
      ([ 3.; 1.; 4.; 1.5 ], 1);
      ([ 3.; 1.; 4.; 1.5 ], 3);
      ([ 3.; 1.; 4.; 1.5 ], 4);
      ([ -2.; -8.; 5. ], 2);
      ([ 7. ], 1);
      ([ 0.; 0.; 0. ], 2);
      ([ 2.5; 2.5; 2.5; 1. ], 2);
    ]

(* Soundness: maximise sum xs subject to per-variable caps and
   sum_largest(xs, m) <= budget; the optimum must respect "any m of them sum
   <= budget", and must equal the brute-force optimum computed by LP over
   explicit subset constraints. *)
let explicit_subset_optimum caps m budget =
  let mdl = Model.create () in
  let vars = List.map (fun c -> Model.add_var ~ub:c mdl) caps in
  let rec subsets k = function
    | [] -> if k = 0 then [ [] ] else []
    | x :: tl ->
      if k = 0 then [ [] ]
      else List.map (fun s -> x :: s) (subsets (k - 1) tl) @ subsets k tl
  in
  List.iter
    (fun subset -> Model.le mdl (Expr.sum (List.map Expr.var subset)) (Expr.const budget))
    (subsets (min m (List.length vars)) vars);
  Model.maximize mdl (Expr.sum (List.map Expr.var vars));
  match Model.solve mdl with
  | Model.Optimal s -> Model.objective_value s
  | _ -> Alcotest.fail "explicit subset LP not optimal"

let encoded_optimum encoding caps m budget =
  let mdl = Model.create () in
  let vars = List.map (fun c -> Model.add_var ~ub:c mdl) caps in
  let y = Bs.sum_largest ~encoding mdl (List.map Expr.var vars) m in
  Model.le mdl y (Expr.const budget);
  Model.maximize mdl (Expr.sum (List.map Expr.var vars));
  match Model.solve mdl with
  | Model.Optimal s -> Model.objective_value s
  | _ -> Alcotest.fail "encoded LP not optimal"

let test_equiv_explicit encoding () =
  List.iter
    (fun (caps, m, budget) ->
      check_float
        (Printf.sprintf "m=%d budget=%g" m budget)
        (explicit_subset_optimum caps m budget)
        (encoded_optimum encoding caps m budget))
    [
      ([ 5.; 5.; 5. ], 2, 6.);
      ([ 5.; 5.; 5.; 5. ], 1, 3.);
      ([ 10.; 2.; 4.; 8. ], 2, 9.);
      ([ 1.; 1.; 1.; 1.; 1. ], 3, 2.);
      ([ 4.; 7. ], 2, 20.);
    ]

let prop_encoding_matches_enumeration =
  QCheck.Test.make ~count:60 ~name:"M-sum encodings match explicit enumeration"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 5) (float_range 0.5 8.))
        (int_range 1 3) (float_range 1. 12.))
    (fun (caps, m, budget) ->
      let reference = explicit_subset_optimum caps m budget in
      List.for_all
        (fun (_, enc) -> abs_float (encoded_optimum enc caps m budget -. reference) < 1e-5)
        encodings)

let prop_encodings_agree_smallest =
  QCheck.Test.make ~count:60 ~name:"smallest-M encodings agree across backends"
    QCheck.(
      pair (list_of_size Gen.(int_range 1 6) (float_range 0. 9.)) (int_range 1 4))
    (fun (values, m) ->
      let run encoding =
        let mdl = Model.create () in
        let xs =
          List.map
            (fun v ->
              let x = Model.add_var mdl in
              Model.eq mdl (Expr.var x) (Expr.const v);
              Expr.var x)
            values
        in
        let y = Bs.sum_smallest ~encoding mdl xs m in
        Model.maximize mdl y;
        match Model.solve mdl with
        | Model.Optimal s -> Model.objective_value s
        | _ -> QCheck.Test.fail_report "not optimal"
      in
      let expected = Bs.value_sum_smallest values (min m (List.length values)) in
      List.for_all (fun (_, enc) -> abs_float (run enc -. expected) < 1e-6) encodings)

let test_value_helpers () =
  check_float "largest" 9. (Bs.value_sum_largest [ 5.; 4.; 1. ] 2);
  check_float "smallest" 5. (Bs.value_sum_smallest [ 5.; 4.; 1. ] 2);
  check_float "largest all" 10. (Bs.value_sum_largest [ 5.; 4.; 1. ] 7);
  check_float "largest none" 0. (Bs.value_sum_largest [ 5.; 4.; 1. ] 0)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let per_encoding name f =
    List.map (fun (ename, e) -> case (Printf.sprintf "%s (%s)" name ename) (f e)) encodings
  in
  Alcotest.run "sortnet"
    [
      ( "lp-encoding",
        per_encoding "tight partial sums" test_tightness
        @ per_encoding "equivalent to explicit subsets" test_equiv_explicit
        @ [
            case "value helpers" test_value_helpers;
            QCheck_alcotest.to_alcotest prop_encoding_matches_enumeration;
            QCheck_alcotest.to_alcotest prop_encodings_agree_smallest;
          ] );
    ]
