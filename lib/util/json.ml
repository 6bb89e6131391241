type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  (* JSON has no IEEE specials; %.17g round-trips every finite double. *)
  | Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | String s -> quote s
  | List xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ to_string v) kvs) ^ "}"

let scalar = function List _ | Obj _ -> false | _ -> true

let to_string_indented v =
  (* A container of scalars stays on one line: one trace event, or one bench
     phase, per line. *)
  let rec go pad v =
    let inner = pad ^ "  " in
    let block o items c = o ^ "\n" ^ inner ^ String.concat (",\n" ^ inner) items ^ "\n" ^ pad ^ c in
    match v with
    | List xs when not (List.for_all scalar xs) -> block "[" (List.map (go inner) xs) "]"
    | Obj kvs when not (List.for_all (fun (_, x) -> scalar x) kvs) ->
      block "{" (List.map (fun (k, x) -> quote k ^ ": " ^ go inner x) kvs) "}"
    | v -> to_string v
  in
  go "" v
