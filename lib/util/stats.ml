let sum xs = List.fold_left ( +. ) 0. xs

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

(* Sample (n-1) estimator: these are always observed samples of a larger
   population (simulation runs, solve times), never the full population. *)
let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let ss = sum (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt (ss /. float_of_int (List.length xs - 1))

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let reject_nan who xs =
  if List.exists Float.is_nan xs then invalid_arg (who ^ ": NaN sample")

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  reject_nan "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let median xs = percentile 50. xs

(* Totally ordered via [Float.compare] (the polymorphic [min]/[max] silently
   misorder NaN, letting one poison or vanish from the result). *)
let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs -> List.fold_left (fun a b -> if Float.compare a b <= 0 then a else b) x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs -> List.fold_left (fun a b -> if Float.compare a b >= 0 then a else b) x xs

type cdf = float array (* sorted samples *)

let cdf_of_samples xs =
  if xs = [] then invalid_arg "Stats.cdf_of_samples: empty";
  reject_nan "Stats.cdf_of_samples" xs;
  sorted_array xs

let cdf_eval c x =
  (* Binary search for the number of samples <= x. *)
  let n = Array.length c in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  float_of_int (go 0 n) /. float_of_int n

let cdf_inverse c q =
  if q < 0. || q > 1. then invalid_arg "Stats.cdf_inverse: q out of range";
  let n = Array.length c in
  if n = 1 then c.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (c.(lo) *. (1. -. frac)) +. (c.(hi) *. frac)
  end

let fraction_above x xs =
  match xs with
  | [] -> 0.
  | _ ->
    let above = List.length (List.filter (fun v -> v > x) xs) in
    float_of_int above /. float_of_int (List.length xs)
