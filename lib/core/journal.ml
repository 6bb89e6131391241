let version = 2

let header_magic = "ffc-journal"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = { w_component : string; mutable pairs : (string * string) list }

let writer component =
  if component = "" || String.exists (fun c -> c = ' ' || c = '\n') component then
    invalid_arg "Journal.writer: component must be a non-empty whitespace-free name";
  { w_component = component; pairs = [] }

let put w key value =
  if key = "" || String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') key then
    invalid_arg (Printf.sprintf "Journal.put: bad key %S" key);
  if String.contains value '\n' then
    invalid_arg (Printf.sprintf "Journal.put: value of %S contains a newline" key);
  w.pairs <- (key, value) :: w.pairs

let put_int w key i = put w key (string_of_int i)

(* Unsigned hex: no sign parsing ambiguity for the high bit. *)
let put_int64 w key i = put w key (Printf.sprintf "%Lx" i)

(* Hexadecimal float literals round-trip every finite double exactly, and
   OCaml's [float_of_string] reads them back (as well as "nan"/"infinity"
   for the non-finite cases %h prints). *)
let float_str f = Printf.sprintf "%h" f

let put_float w key f = put w key (float_str f)

let put_floats w key a =
  put w key (String.concat "," (List.map float_str (Array.to_list a)))

let put_float_rows w key rows =
  put w key
    (String.concat ";"
       (List.map
          (fun row -> String.concat "," (List.map float_str (Array.to_list row)))
          (Array.to_list rows)))

let to_string w =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s %d %s\n" header_magic version w.w_component);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s %s\n" k v))
    (List.rev w.pairs);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type reader = { r_component : string; tbl : (string, string) Hashtbl.t }

let component r = r.r_component

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | [] -> Error "journal: empty document"
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ magic; v; comp ] when magic = header_magic -> (
      match int_of_string_opt v with
      | None -> Error (Printf.sprintf "journal: unreadable version %S" v)
      | Some v when v <> version ->
        Error
          (Printf.sprintf "journal: version %d, this build reads version %d" v version)
      | Some _ ->
        let tbl = Hashtbl.create 32 in
        let bad = ref None in
        List.iteri
          (fun i line ->
            if !bad = None && line <> "" then
              match String.index_opt line ' ' with
              | Some sp ->
                Hashtbl.replace tbl
                  (String.sub line 0 sp)
                  (String.sub line (sp + 1) (String.length line - sp - 1))
              | None -> bad := Some (i + 2))
          rest;
        (match !bad with
        | Some ln -> Error (Printf.sprintf "journal: malformed line %d" ln)
        | None -> Ok { r_component = comp; tbl }))
    | _ -> Error "journal: not an ffc-journal document")

let expect name = function
  | Error _ as e -> e
  | Ok r when r.r_component <> name ->
    Error
      (Printf.sprintf "journal: component %S, expected %S" r.r_component name)
  | Ok _ as ok -> ok

let get r key =
  match Hashtbl.find_opt r.tbl key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "journal: missing key %S" key)

let parse_with name conv r key =
  match get r key with
  | Error _ as e -> e
  | Ok v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "journal: key %S is not %s (%S)" key name v))

let get_int r key = parse_with "an int" int_of_string_opt r key

let get_int64 r key =
  parse_with "a hex int64" (fun v -> Int64.of_string_opt ("0x" ^ v)) r key

let float_opt v = float_of_string_opt v

let get_float r key = parse_with "a float" float_opt r key

let floats_of_string v =
  if v = "" then Some [||]
  else
    let parts = String.split_on_char ',' v in
    let out = Array.make (List.length parts) 0. in
    let ok = ref true in
    List.iteri
      (fun i p ->
        match float_opt p with Some f -> out.(i) <- f | None -> ok := false)
      parts;
    if !ok then Some out else None

let get_floats r key = parse_with "a float list" floats_of_string r key

let get_float_rows r key =
  parse_with "a float matrix"
    (fun v ->
      if v = "" then Some [||]
      else
        let parts = String.split_on_char ';' v in
        let out = Array.make (List.length parts) [||] in
        let ok = ref true in
        List.iteri
          (fun i p ->
            match floats_of_string p with
            | Some row -> out.(i) <- row
            | None -> ok := false)
          parts;
        if !ok then Some out else None)
    r key
