(* Statistics, span accounting and JSON output for the interval-edge latency
   ledger. Kept apart from main.ml so the test can check them alone. *)

module Obs = Ffc_obs.Obs

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, reported only when at least [min_beyond]
   samples lie strictly above its rank: a tail figure resting on fewer
   samples is noise, not a measurement. *)
let tail_percentile ?(min_beyond = 10) p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < min_beyond then None else Some a.(rank - 1)

(* Per span name: (calls, total ms, self ms). A span's self time is its
   duration minus that of its direct children; a child is the next span one
   level deeper that starts inside it. Spans of one domain nest properly, so
   a stack over start order recovers the tree. *)
let self_times (spans : Obs.span_view list) =
  let by_start =
    List.stable_sort
      (fun (a : Obs.span_view) (b : Obs.span_view) ->
        match compare a.dom b.dom with
        | 0 -> (
          match Float.compare a.start_ms b.start_ms with
          | 0 -> compare a.depth b.depth
          | c -> c)
        | c -> c)
      spans
  in
  let table = Hashtbl.create 16 in
  let children = Hashtbl.create 64 in
  let stack = ref [] in
  List.iteri
    (fun i (s : Obs.span_view) ->
      let rec unwind () =
        match !stack with
        | (_, (top : Obs.span_view)) :: rest when top.dom <> s.dom || top.depth >= s.depth ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | (j, (top : Obs.span_view)) :: _ when top.depth = s.depth - 1 ->
        Hashtbl.replace children j
          (s.dur_ms +. Option.value (Hashtbl.find_opt children j) ~default:0.)
      | _ -> ());
      stack := (i, s) :: !stack)
    by_start;
  List.iteri
    (fun i (s : Obs.span_view) ->
      let calls, total, self =
        Option.value (Hashtbl.find_opt table s.name) ~default:(0, 0., 0.)
      in
      let kids = Option.value (Hashtbl.find_opt children i) ~default:0. in
      Hashtbl.replace table s.name (calls + 1, total +. s.dur_ms, self +. (s.dur_ms -. kids)))
    by_start;
  table

let self_ms table name =
  match Hashtbl.find_opt table name with Some (_, _, s) -> s | None -> 0.

let total_ms table name =
  match Hashtbl.find_opt table name with Some (_, t, _) -> t | None -> 0.

(* Self time summed over every span whose name starts with [prefix]
   (e.g. the ladder's per-rung spans). *)
let self_ms_prefix table prefix =
  let n = String.length prefix in
  Hashtbl.fold
    (fun name (_, _, s) acc ->
      if String.length name >= n && String.sub name 0 n = prefix then acc +. s else acc)
    table 0.

(* --- JSON ------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* The result line: every metric as {"value": v, "unit": u}. *)
let result_line ~correct ~attempted ~failed metrics =
  json_object
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun (name, unit, v) ->
               (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
             metrics) );
    ]
