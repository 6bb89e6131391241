open Ffc_lp

type encoding = [ `Sorting_network | `Duality ]

type elements = {
  count : int;
  id : int -> int;
  iter : int -> (Model.var -> float -> unit) -> unit;
  constant : int -> float;
}

(* The encodings below build, row for row and bit for bit, what the
   [Expr] forms [Model.ge]/[le]/[eq] of their comparisons would: the same
   variables and rows in the same order and scopes, each coefficient as
   [Expr.iter_sub] would compute it (a right-hand-side term [c] enters as
   [-1. *. c]) and each side's constant as [Expr] would add it up. Their
   comments give each row in that [Expr] form.

   Keys (Model.scope): every comparator or slack built for element [x] of
   the input lives in a child scope named by [x]'s id, so dropping one
   element of a pool leaves the other elements' auxiliaries keyed as
   before. *)

(* Sorting network (Algorithms 1-2): pass [k], in child scope [k], bubbles
   the winner (the maximum for [largest], else the minimum) out of the
   pool, one compare-swap per other element. Each compare-swap of inputs a,
   b emits fresh variables win, lose (in that order) with
     win >= a, win >= b, lose = a + b - win    (<= for the minimum).
   Under an upper-bound use of the maximum the solver pushes win down to
   max(a, b), making the linearisation of |a - b| in Algorithm 2 exact.
   The loser of the comparison with [x] inherits [x]'s id. Operands are
   ints: a variable [v >= 0] itself, input element [i] as [-(i + 1)]. Pass
   [k]'s pool is [cur.(k ..)], and [cur.(i)] becomes the loser of the
   comparison with it. *)
let network ~largest model xs m ~emit =
  let n = xs.count in
  let neg_term v c = Model.term model v (-1. *. c) in
  let append_neg op =
    if op >= 0 then Model.term model op (-1. *. 1.) else xs.iter (-op - 1) neg_term
  in
  let constant op = if op >= 0 then 0. else xs.constant (-op - 1) in
  let sense = if largest then Problem.Ge else Problem.Le in
  let cur = Array.init n (fun i -> -(i + 1)) in
  let tops = Array.make m 0 in
  for k = 0 to m - 1 do
    Model.scope model k (fun () ->
        let acc = ref cur.(k) in
        for i = k + 1 to n - 1 do
          Model.scope model (xs.id i) (fun () ->
              let win = Model.add_var ~lb:neg_infinity model in
              let lose = Model.add_var ~lb:neg_infinity model in
              let a = !acc and x = cur.(i) in
              (* ge win a, ge win x (le for the minimum) *)
              Model.term model win 1.;
              append_neg a;
              Model.close_row model sense ~lhs:0. ~rhs:(constant a);
              Model.term model win 1.;
              append_neg x;
              Model.close_row model sense ~lhs:0. ~rhs:(constant x);
              (* eq lose (sub (add a x) win) *)
              Model.term model lose 1.;
              append_neg x;
              append_neg a;
              Model.term model win (-1. *. (-1. *. 1.));
              Model.close_row model Problem.Eq ~lhs:0.
                ~rhs:(constant a +. constant x +. (-1. *. 0.));
              acc := win;
              cur.(i) <- lose)
        done;
        tops.(k) <- !acc)
  done;
  (* Y is the sum of the passes' winners. *)
  Array.iter (fun v -> emit v 1.) tops;
  0.

(* Duality encoding: sum_largest(x, M) = min over t of M*t + sum_v (x_v-t)^+.
   With s_v >= x_v - t, s_v >= 0 free to be larger, Y = M*t + sum s_v
   dominates the true value and the solver recovers equality by choosing
   t = x_(M). Symmetrically sum_smallest(x, M) >= Y = M*t - sum s_v with
   s_v >= t - x_v. [slacks.(i)] is element [i]'s slack. *)
let duality ~largest model xs m ~emit =
  let t = Model.add_var ~lb:neg_infinity model in
  let slacks = Array.make xs.count 0 in
  let neg_term v c = Model.term model v (-1. *. c) in
  let pos_term v c = Model.term model v (-1. *. (-1. *. c)) in
  for i = 0 to xs.count - 1 do
    Model.scope model (xs.id i) (fun () ->
        let s = Model.add_var model in
        slacks.(i) <- s;
        Model.term model s 1.;
        if largest then begin
          (* ge (var s) (sub x t) *)
          xs.iter i neg_term;
          Model.term model t (-1. *. (-1. *. 1.));
          Model.close_row model Problem.Ge ~lhs:0. ~rhs:(xs.constant i +. (-1. *. 0.))
        end
        else begin
          (* ge (var s) (sub t x) *)
          Model.term model t (-1. *. 1.);
          xs.iter i pos_term;
          Model.close_row model Problem.Ge ~lhs:0. ~rhs:(0. +. (-1. *. xs.constant i))
        end)
  done;
  (* add (scale m t) (sum slacks), or sub for the smallest: constant 0. *)
  emit t (float_of_int m *. 1.);
  let sign = if largest then 1. else -1. *. 1. in
  Array.iter (fun s -> emit s sign) slacks;
  0.

let emit_sum ~largest ?(encoding = `Sorting_network) model xs m ~emit =
  if m <= 0 then 0.
  else if m >= xs.count then begin
    (* Y is the plain sum, its constant added up from 0. as [Expr.sum]
       does. *)
    let c = ref 0. in
    for i = 0 to xs.count - 1 do
      xs.iter i emit;
      c := !c +. xs.constant i
    done;
    !c
  end
  else
    match encoding with
    | `Sorting_network -> network ~largest model xs m ~emit
    | `Duality -> duality ~largest model xs m ~emit

let emit_largest = emit_sum ~largest:true
let emit_smallest = emit_sum ~largest:false

(* The [Expr] front-end: the elements are expressions, and Y comes back as
   one. *)
let expr_sum ~largest ?encoding ?ids model xs m =
  let n = List.length xs in
  if m <= 0 then Expr.zero
  else if m >= n then Expr.sum xs
  else begin
    let ids =
      match ids with
      | None -> Array.init n Fun.id
      | Some ids ->
        if List.compare_lengths ids xs <> 0 then
          invalid_arg "Bounded_sum: ids and xs differ in length";
        Array.of_list ids
    in
    let xs = Array.of_list xs in
    let elements =
      {
        count = n;
        id = (fun i -> ids.(i));
        iter = (fun i f -> Expr.iter_sub f xs.(i) Expr.zero);
        constant = (fun i -> Expr.constant xs.(i));
      }
    in
    let y = ref Expr.zero in
    let c =
      emit_sum ~largest ?encoding model elements m ~emit:(fun v c -> y := Expr.add_term !y c v)
    in
    Expr.add !y (Expr.const c)
  end

let sum_largest = expr_sum ~largest:true
let sum_smallest = expr_sum ~largest:false

let value_sum_largest xs m =
  let sorted = List.sort (fun a b -> Float.compare b a) xs in
  List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < m) sorted)

let value_sum_smallest xs m =
  let sorted = List.sort Float.compare xs in
  List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < m) sorted)
