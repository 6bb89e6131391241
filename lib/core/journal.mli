(** Versioned crash–recovery journal serialization.

    A journal document is a line-oriented key–value snapshot of one
    component's guarantee-relevant state, written by that component's
    [snapshot] function and read back by its [restore]:

    {v
    ffc-journal 2 controller
    audit_rng 9e3779b97f4a7c15
    v}

    The header carries a format {!version} and a component name; {!of_string}
    rejects any document whose version differs from the running binary's —
    a restored controller must never silently misinterpret state written by
    an incompatible build. Floats are encoded as hexadecimal literals
    ([%h]), so every numeric field round-trips bit-for-bit and a restored
    component continues byte-identically.

    Deliberately {e not} a general serializer: values are single lines,
    keys are whitespace-free, and each component owns its key schema. *)

val version : int
(** Current journal format version (bumped on any incompatible change). *)

(** {2 Writing} *)

type writer

val writer : string -> writer
(** [writer component] starts a document for the named component. *)

val put : writer -> string -> string -> unit
(** [put w key value]. Raises [Invalid_argument] if [key] contains
    whitespace or [value] contains a newline. *)

val put_int : writer -> string -> int -> unit
val put_int64 : writer -> string -> int64 -> unit
val put_float : writer -> string -> float -> unit
(** Hexadecimal ([%h]) encoding: exact round-trip. *)

val put_floats : writer -> string -> float array -> unit
(** Comma-separated hexadecimal floats on one line. *)

val put_float_rows : writer -> string -> float array array -> unit
(** Rows separated by [';'], entries by [','] (a jagged matrix on one
    line). *)

val to_string : writer -> string
(** The complete document, header first, pairs in insertion order. *)

(** {2 Reading} *)

type reader

val of_string : string -> (reader, string) result
(** Parse a document. [Error] on a malformed header, an unparseable line,
    or — the contract that makes the format versioned — a version number
    different from {!version}. *)

val component : reader -> string

val expect : string -> (reader, string) result -> (reader, string) result
(** [expect name r] additionally rejects a document written by a different
    component (restoring a southbound journal into a controller is a caller
    bug worth a clear error, not a missing-key cascade). *)

val get : reader -> string -> (string, string) result
(** [Error] names the missing key. *)

val get_int : reader -> string -> (int, string) result
val get_int64 : reader -> string -> (int64, string) result
val get_float : reader -> string -> (float, string) result
val get_floats : reader -> string -> (float array, string) result
val get_float_rows : reader -> string -> (float array array, string) result
