(* The one place that knows what in a seeded stream varies from run to run
   or from host to host. Copies FILE to stdout without it, so the rest can
   be diffed against a golden:

   - the BENCH header line, whose [ocaml] field names the compiler;
   - the numbers of the wall-time members of the BENCH JSON, each printed
     as "-" instead;
   - a fuzz report's first line, "fuzz seed N (T ms)";
   - the bench's "All selected experiments finished in T s." line.

   Usage: filter.exe FILE *)

(* Each wall-time member as it opens in the JSON: ["key":]. *)
let wall_time_keys =
  List.map (Printf.sprintf "\"%s\":")
    [ "time_ms"; "baseline_ms"; "speedup"; "cold_ms"; "warm_ms"; "median_ms"; "p95_ms" ]

let dropped line =
  let prefix p = String.starts_with ~prefix:p line in
  prefix "  \"header\": "
  || (prefix "fuzz seed " && String.ends_with ~suffix:" ms)" line)
  || prefix "All selected experiments finished in "

let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* [line] with the number after each wall-time key (and the space the
   indented layout puts before it) replaced by ["-"]. *)
let blank_wall_times line =
  let n = String.length line in
  let b = Buffer.create n in
  let at i key = i + String.length key <= n && String.sub line i (String.length key) = key in
  let rec go i =
    if i < n then
      match List.find_opt (at i) wall_time_keys with
      | None ->
        Buffer.add_char b line.[i];
        go (i + 1)
      | Some key ->
        let j = i + String.length key in
        let j = if j < n && line.[j] = ' ' then j + 1 else j in
        let e = ref j in
        while !e < n && is_number_char line.[!e] do
          incr e
        done;
        Buffer.add_string b (String.sub line i (j - i));
        if !e > j then Buffer.add_string b "\"-\"";
        go !e
  in
  go 0;
  Buffer.contents b

let () =
  let path =
    match Sys.argv with [| _; path |] -> path | _ -> failwith "usage: filter.exe FILE"
  in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (dropped l))
  |> List.map blank_wall_times
  |> String.concat "\n"
  |> print_string
