(** Minimal self-contained JSON values: enough to serialize traces and read
    them back in tests, with no external dependency. Numbers are kept as
    [Int]/[Float] on construction; the parser returns [Int] when the literal
    has no fraction or exponent. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact single-line rendering. Non-finite floats are rendered as [null]
    so the output is always standard JSON. *)

val of_string : string -> t
(** Parse a complete JSON document; raises {!Parse_error} on malformed input
    or trailing garbage. *)

val member : string -> t -> t
(** [member k (Obj kvs)] is the value bound to [k], or [Null] when absent or
    when the value is not an object. *)

val to_list : t -> t list
(** Elements of a [List]; [[]] for anything else. *)

val to_int : t -> int
(** [Int n] or a whole [Float]; raises [Parse_error] otherwise. *)

val to_float : t -> float

val to_str : t -> string

val to_bool : t -> bool

val field : string -> t -> t
(** Strict {!member}: [field k v] is the value bound to [k]; raises
    {!Parse_error} naming [k] when [v] has no [k] or is not an object. *)
