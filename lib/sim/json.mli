(** JSON values and the repository's two byte-stable printers.

    Every JSON file the harness writes (metric registries, Chrome traces,
    sweep and scenario exports, the perf report) is built as a [t] and
    printed here, so the escape rule, the float rule and the layout are
    decided in one place: the same value always prints to the same
    bytes. *)

type t =
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float  (** printed by {!float_string} *)
  | Fixed of int * float
      (** [Fixed (d, x)]: [x] with exactly [d] decimals ([%.*f]) *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members print in list order *)
  | Compact of t
      (** printed by {!compact} even inside {!pretty}, and laid out like
          a scalar there *)

(** JSON string body of a byte string: double quote and backslash get
    a backslash, newline becomes [\\n], every other byte below 0x20
    becomes [\\u00XX]; all other bytes pass through. *)
val escape : string -> string

(** The registry float rule: nan is [0], [±infinity] is [±1e308], an
    integral value below 1e15 in magnitude prints as [%.0f], anything
    else as [%.6g]. *)
val float_string : float -> string

(** No whitespace at all; no trailing newline. *)
val compact : t -> string

(** [pretty v] lays [v] out for reading and diffing, ending with a
    newline. The top-level object, and any object holding a list or an
    object, puts one member per line; every list puts each element on its
    own line; any other object prints inline as [{ "k": v, ... }].
    Nesting indents by [indent] spaces (default 2). *)
val pretty : ?indent:int -> t -> string
