(** The one JSON writer: every JSON artifact of this repository (the
    [--stats-json] lines, the Obs metrics and trace exports, every
    [BENCH_*.json]) is built as a [t] and printed here, so one string
    escaper and one number format serve them all. Write-only: nothing in
    the repository reads JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with [%.17g], which round-trips; non-finite as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the given order *)

val to_string : t -> string
(** Compact: no whitespace at all, e.g. [{"a":[1,null]}]. *)

val to_string_indented : t -> string
(** Two-space indentation, one member or element per line, with [": "]
    after keys; a container whose members are all scalars (or that is
    empty) prints compactly on one line. No trailing newline. *)
