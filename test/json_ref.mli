(** The character-at-a-time JSON codec that [Mps_util.Json] replaced,
    kept with the tests as the reference its values, errors and bytes are
    checked against: [parse] reads through a [peek] that allocates an
    option per character and adds string bodies one character at a time
    (a [\u] escape of four hex digits, or a surrogate pair of them, as
    UTF-8) and reads numbers by RFC 8259's grammar one character at a
    time;
    the emitter escapes one character at a time and prints every integral
    number below 1e15 through ["%.0f"]. *)

type t = Mps_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_line : t -> string
val parse : string -> (t, string) result
