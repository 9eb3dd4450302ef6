(** Minimal JSON tree, shared by every JSON producer and consumer in the
    repo: the Chrome trace-event files {!Mps_obs.Obs.chrome_trace} emits,
    and the line-delimited request/response protocol of the scheduling
    service ([lib/serve]).

    The emitter ({!to_string}) is what trace writing renders through, so
    every trace the CLI writes is valid by construction; {!to_line} is the
    single-line variant the wire protocol needs; the parser ({!parse}) is
    the round-trip check — [mpsched tracecheck], the serve request reader
    and the test suite all load emitted JSON back through it.  It is a
    strict recursive-descent parser for the JSON subset the emitters
    produce (objects, arrays, strings with escapes, numbers, booleans,
    null); it is not a general standards-lawyer JSON implementation. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace except after the
    commas of objects and arrays, for greppability).  Strings are escaped
    per RFC 8259, one plain run at a time: ['"'], ['\\'], ['\n'], ['\r']
    and ['\t'] by their short escapes, other control characters (below
    0x20) as [\u00XX] in lowercase hex, every other byte as is.  Integral
    numbers below 1e15 in magnitude print as integers ([string_of_int]
    digits, and ["-0"] for negative zero, as ["%.0f"] writes it); every
    other number prints through ["%.12g"]. *)

val to_line : t -> string
(** Like {!to_string} but with plain [","] separators — one line whatever
    the value, which is what the line-delimited serve protocol requires
    (a request or response is exactly one ['\n']-terminated line). *)

val add_members : Buffer.t -> (string * t) list -> unit
(** Appends the members of an object as {!to_line} renders them between
    its braces, so a caller can frame an object line in its own buffer:
    ["{"], then [add_members buf kvs], then ["}"] is [to_line (Obj kvs)]. *)

val escaped : string -> string
(** The body of the string's JSON spelling, between its quotes, as
    {!to_line} spells [Str s]. *)

val parse :
  ?known:string * (string -> int -> (string * int) option) ->
  string ->
  (t, string) result
(** Parses one JSON value followed only by whitespace.  [Error] carries a
    byte offset and a reason, as ["offset N: reason"], for the first
    failure a left-to-right reading meets.  Whitespace is space, tab,
    ['\n'] and ['\r'].  String bodies are copied by plain runs up to the
    next quote or backslash; [\u] takes exactly four hex digits (no
    sign, no underscore; anything else is ["bad \u escape"] at the first
    of the four) and decodes to UTF-8, a high surrogate followed by a
    [\u] escape of a low one as the one code point they encode; a
    surrogate without its other half is refused as ["bad \u escape"] at
    the offset of its own four characters.  A number follows RFC 8259's
    grammar, [-? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?]: a
    value that starts with neither a minus nor a digit ([+1], [.5]) is
    ["expected a number"] at its first character, and a number the
    grammar breaks off ([01], [1.], [1e], [-]) is ["malformed number"]
    where it breaks.  A number that overflows to an infinity is refused
    as ["number out of range"] at its end.

    [known = (k, find)] offers the string value of each object member
    named [k] to [find] before decoding it: [find s i] sees the line and
    the offset of the value's first byte after its opening quote.
    [Some (v, j)] says that decoding the string from [i] would give [v]
    and end at the closing quote at [j]; the value is then [v] itself,
    no byte of it is decoded, and reading resumes after [j].  [None]
    decodes the string as usual.  [find] is trusted to answer only what
    decoding would, so the result, errors and offsets included, is the
    same with or without [known]. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] on any other
    constructor. *)
