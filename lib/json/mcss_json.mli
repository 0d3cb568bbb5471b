(** The repository's one JSON codec: a minimal value type with a strict
    parser and printer. It is a leaf library with no dependencies, so the
    planning daemon's line protocol, the dataplane, the metric sinks, the
    elastic ledger, the CLI reports and every [BENCH_*.json] share one
    encoder — and none of them can write invalid JSON.

    The parser accepts RFC 8259 JSON with two deliberate relaxations:
    numbers are read with [float_of_string] (so [1e999] parses to
    [infinity] rather than erroring), and top-level values other than
    objects/arrays are allowed. {!to_string} always emits valid JSON on
    one line (non-finite floats become [null]), so a printed value can
    be framed by a single ['\n']. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields in insertion order; duplicates kept. *)

val parse : string -> (t, string) result
(** Parse one JSON value; [Error] carries a message with the byte
    offset. Trailing whitespace is allowed, trailing garbage is not. *)

val to_string : t -> string
(** One-line rendering (the wire format); strings are escaped per
    RFC 8259 and floats print as [%.12g]. *)

val to_string_pretty : t -> string
(** The same value laid out for files people read: every non-empty
    array and object breaks onto lines indented two spaces per level,
    and keys are followed by [": "]. No trailing newline. Parses back
    to the same value as {!to_string}. *)

(** {2 Accessors}

    All return [None] on a type or shape mismatch instead of raising, so
    request decoding can fold them with [Option.bind]. *)

val member : string -> t -> t option
(** First field with that name, when the value is an object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
(** Accepts [Int] and integral [Float]s. *)

val to_float_opt : t -> float option
(** Accepts [Float] and [Int]. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
