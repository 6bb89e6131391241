open Ffc_lp

type encoding = [ `Sorting_network | `Duality ]

(* Keys (Model.scope): every comparator or slack built for element [x] of
   the input lives in a child scope named by [x]'s id, so dropping one
   element of a pool leaves the other elements' auxiliaries keyed as
   before. Pools are lists of (id, expression). *)

(* BubbleMax (Algorithm 2): one pass of compare-swap operators that leaves an
   expression representing max{pool} and the n-1 "losers". Each compare-swap
   of inputs a, b emits fresh variables hi, lo with
     hi >= a, hi >= b, lo = a + b - hi.
   Under an upper-bound use the solver pushes hi down to max(a,b), making the
   linearisation of |a - b| in the paper's Algorithm 2 exact. The loser of
   the comparison with [x] inherits [x]'s id. *)
let bubble_max model pool =
  match pool with
  | [] -> invalid_arg "bubble_max: empty pool"
  | (_, first) :: rest ->
    let compare_swap acc x =
      let hi = Model.add_var ~lb:neg_infinity model in
      let lo = Model.add_var ~lb:neg_infinity model in
      let hi_e = Expr.var hi and lo_e = Expr.var lo in
      Model.ge model hi_e acc;
      Model.ge model hi_e x;
      Model.eq model lo_e (Expr.sub (Expr.add acc x) hi_e);
      (hi_e, lo_e)
    in
    let rec pass acc losers = function
      | [] -> (acc, List.rev losers)
      | (id, x) :: tl ->
        let hi, lo = Model.scope model id (fun () -> compare_swap acc x) in
        pass hi ((id, lo) :: losers) tl
    in
    pass first [] rest

(* Dual pass for the smallest element: lo <= a, lo <= b, hi = a + b - lo. *)
let bubble_min model pool =
  match pool with
  | [] -> invalid_arg "bubble_min: empty pool"
  | (_, first) :: rest ->
    let compare_swap acc x =
      let lo = Model.add_var ~lb:neg_infinity model in
      let hi = Model.add_var ~lb:neg_infinity model in
      let lo_e = Expr.var lo and hi_e = Expr.var hi in
      Model.le model lo_e acc;
      Model.le model lo_e x;
      Model.eq model hi_e (Expr.sub (Expr.add acc x) lo_e);
      (lo_e, hi_e)
    in
    let rec pass acc losers = function
      | [] -> (acc, List.rev losers)
      | (id, x) :: tl ->
        let lo, hi = Model.scope model id (fun () -> compare_swap acc x) in
        pass lo ((id, hi) :: losers) tl
    in
    pass first [] rest

(* LargestValues (Algorithm 1): pop the maximum M times, pass [k] in child
   scope [k]. *)
let network_largest model xs m =
  let rec go pool k acc =
    if k = m then acc
    else
      let top, rest = Model.scope model k (fun () -> bubble_max model pool) in
      go rest (k + 1) (Expr.add acc top)
  in
  go xs 0 Expr.zero

let network_smallest model xs m =
  let rec go pool k acc =
    if k = m then acc
    else
      let bot, rest = Model.scope model k (fun () -> bubble_min model pool) in
      go rest (k + 1) (Expr.add acc bot)
  in
  go xs 0 Expr.zero

(* Duality encoding: sum_largest(x, M) = min over t of M*t + sum_v (x_v-t)^+.
   With s_v >= x_v - t, s_v >= 0 free to be larger, the expression
   M*t + sum s_v dominates the true value and the solver recovers equality by
   choosing t = x_(M). *)
let duality_largest model xs m =
  let t = Model.add_var ~lb:neg_infinity model in
  let t_e = Expr.var t in
  let slacks =
    List.map
      (fun (id, x) ->
        Model.scope model id (fun () ->
            let s = Model.add_var model in
            Model.ge model (Expr.var s) (Expr.sub x t_e);
            Expr.var s))
      xs
  in
  Expr.add (Expr.scale (float_of_int m) t_e) (Expr.sum slacks)

let duality_smallest model xs m =
  let t = Model.add_var ~lb:neg_infinity model in
  let t_e = Expr.var t in
  let slacks =
    List.map
      (fun (id, x) ->
        Model.scope model id (fun () ->
            let s = Model.add_var model in
            Model.ge model (Expr.var s) (Expr.sub t_e x);
            Expr.var s))
      xs
  in
  Expr.sub (Expr.scale (float_of_int m) t_e) (Expr.sum slacks)

let pool ?ids xs =
  match ids with
  | None -> List.mapi (fun i x -> (i, x)) xs
  | Some ids ->
    if List.compare_lengths ids xs <> 0 then
      invalid_arg "Bounded_sum: ids and xs differ in length";
    List.combine ids xs

let sum_largest ?(encoding = `Sorting_network) ?ids model xs m =
  let n = List.length xs in
  if m <= 0 then Expr.zero
  else if m >= n then Expr.sum xs
  else
    match encoding with
    | `Sorting_network -> network_largest model (pool ?ids xs) m
    | `Duality -> duality_largest model (pool ?ids xs) m

let sum_smallest ?(encoding = `Sorting_network) ?ids model xs m =
  let n = List.length xs in
  if m <= 0 then Expr.zero
  else if m >= n then Expr.sum xs
  else
    match encoding with
    | `Sorting_network -> network_smallest model (pool ?ids xs) m
    | `Duality -> duality_smallest model (pool ?ids xs) m

let value_sum_largest xs m =
  let sorted = List.sort (fun a b -> Float.compare b a) xs in
  List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < m) sorted)

let value_sum_smallest xs m =
  let sorted = List.sort Float.compare xs in
  List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < m) sorted)
