(** Minimal JSON values, shared by the campaign JSONL checkpoints, the
    fault-plan DSL and the lint JSON report.

    The container ships no JSON package, and every record we exchange is
    flat (ints, floats, strings, shallow nesting), so a small
    self-contained encoder/parser keeps the dependency budget at zero. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quote,
    backslash, [\n], [\t] and [\r] get their short escapes, every
    other control character a [\u00XX] escape. *)

val to_string : t -> string
(** Compact, single-line encoding. Integral [Num]s print without a
    decimal point so job ids round-trip textually. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; [Error] carries the offset and reason.
    Trailing garbage after the document is an error. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] elsewhere. *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] requires the number to be integral. *)

val to_str : t -> string option
