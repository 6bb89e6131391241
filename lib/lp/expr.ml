(* Terms are kept as an unordered list and merged lazily: building large sums
   stays O(n), [Model] consumes the list unmerged, and normalisation happens
   only where [terms] is asked for. *)
type t = { raw : (int * float) list; constant : float }

let zero = { raw = []; constant = 0. }

let const c = { raw = []; constant = c }

let var ?(coeff = 1.) i = { raw = [ (i, coeff) ]; constant = 0. }

let add a b = { raw = List.rev_append a.raw b.raw; constant = a.constant +. b.constant }

let scale k e =
  if k = 0. then { zero with constant = 0. }
  else { raw = List.map (fun (i, c) -> (i, k *. c)) e.raw; constant = k *. e.constant }

let neg e = scale (-1.) e

let sub a b = add a (neg b)

(* One pass: each summand's terms are consed onto the accumulator, which is
   never copied (a fold of [add] would copy it at every step). *)
let sum es =
  let rec go raw constant = function
    | [] -> { raw; constant }
    | e :: es -> go (List.rev_append e.raw raw) (constant +. e.constant) es
  in
  go [] 0. es

let add_term e c i = { e with raw = (i, c) :: e.raw }

(* The terms of [sub a b] in its order, [a]'s reversed and then [b]'s
   negated, without building the difference. *)
let iter_sub f a b =
  let rec rev_iter = function
    | [] -> ()
    | (i, c) :: rest ->
      rev_iter rest;
      f i c
  in
  rev_iter a.raw;
  List.iter (fun (i, c) -> f i (-1. *. c)) b.raw

(* A stable sort by index keeps each variable's terms in list order, so
   summing a run left to right adds them in the order they were built. *)
let terms e =
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, c) :: rest -> run acc i c rest
  and run acc i c = function
    | (j, d) :: rest when j = i -> run acc i (c +. d) rest
    | rest -> merge (if c = 0. then acc else (i, c) :: acc) rest
  in
  merge [] (List.stable_sort (fun (i, _) (j, _) -> Int.compare i j) e.raw)

let constant e = e.constant

let eval value e =
  List.fold_left (fun acc (i, c) -> acc +. (c *. value i)) e.constant e.raw

let pp fmt e =
  let ts = terms e in
  let pp_term fmt (i, c) = Format.fprintf fmt "%+g*x%d" c i in
  Format.fprintf fmt "%a %+g" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_term) ts
    e.constant
