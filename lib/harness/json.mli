(** The repository's one JSON module: every [BENCH_*.json], every
    [--json] output and every tier-1 contract goes through it (there is
    no JSON library in the toolchain). The printer alone decides the
    text — escaping, layout, number format, and [null] for a non-finite
    float, so a broken measurement fails a contract instead of passing
    as a plausible "0.0". *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields in emission order. *)

val to_string : t -> string
(** Ints without a decimal point, finite floats as [%.6f], NaN and ±∞ as
    [null]. Strings escape the quote, the backslash, newline, tab and
    other control characters ([\u00XX]). An array or object whose
    elements are all arrays or objects prints one element per line,
    indented two spaces per level; any other prints on one line as
    [{"k": v, "k2": v2}]. *)

val to_file : string -> t -> unit
(** [to_string] plus a final newline. *)

exception Parse_error of string

val of_string : string -> t
(** One document. A number with no fraction or exponent reads as [Int].
    Inverts {!to_string} on values whose floats are finite and exact to
    six decimals. Raises {!Parse_error} with the byte offset. *)

val of_file : string -> t

(** {1 Accessors} — each raises {!Type_error} saying what it expected. *)

exception Type_error of string

val kind : t -> string
(** ["null"], ["bool"], ["int"], ... for messages. *)

val member : string -> t -> t option
(** Field [k] of an object; the last one when [k] repeats, as Python and
    JavaScript readers do ({!Runner} cells carry ["smr"] twice: the
    scheme name, then its stats). *)

val to_number : t -> float
(** An [Int] or a finite [Float]; [null] is rejected. *)

val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val to_assoc : t -> (string * t) list
