(** Minimal JSON values: emission for the exporters, parsing for the tests.

    Deliberately tiny — the repo takes no dependency on a JSON library. The
    parser accepts standard JSON (objects, arrays, strings with the common
    escapes, numbers, booleans, null); the printer emits exactly what the
    parser accepts, so exported traces round-trip. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** Integers render without a fractional part. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed, trailing garbage
    rejected). *)

val member : string -> t -> t option
(** Object field lookup; [None] on absent fields and non-objects. *)
