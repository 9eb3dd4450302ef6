(** The line-delimited JSON protocol of the scheduling service.

    One request is one ['\n']-terminated line holding a single JSON
    object; the response to it is likewise one line.  The grammar:

    {v
    request  = { "id"?: any, "cmd": string, GRAPH?, "edits"?: [EDIT],
                 "options"?: OPTIONS }
    GRAPH    = "graph": string      -- a built-in workload name
             | "dfg": string        -- DFG text ("node ..." / "edge ..." lines)
             | "dot": string        -- the Graphviz DOT subset Dfg_parse accepts
    EDIT     = { "op": "add_node", "node": string, "color": string }
             | { "op": "remove_node", "node": string }
             | { "op": "add_edge", "src": string, "dst": string }
             | { "op": "remove_edge", "src": string, "dst": string }
    OPTIONS  = { "capacity"?: int, "span"?: int, "pdef"?: int,
                 "priority"?: "f1"|"f2", "strategy"?: "eq8"|"auto",
                 "cluster"?: bool, "budget"?: int,
                 "max_nodes"?: int, "patterns"?: [string] }
    v}

    ["id"] is an arbitrary JSON value echoed in the response, so clients
    can correlate out-of-band.  It is echoed as parsed and rendered
    again, not byte for byte: a string keeps its value but not its
    escapes ([\u00e9] comes back as the two UTF-8 bytes of é), an integer
    below 10{^15} in magnitude comes back exactly, and any other number
    is rendered through ["%.12g"], 12 significant digits
    ([1234567890123456789] comes back as [1.23456789012e+18],
    [9007199254740993] as [9.00719925474e+15]).  Where ids must match
    exactly, use strings or integers below 10{^15}.

    ["span"] and ["budget"] accept a negative value meaning
    {e unlimited}; omitted options fall back to the same defaults the
    one-shot CLI uses.  [cmd] is one of [select],
    [schedule], [pipeline], [certify], [portfolio], [edit], [stats]; every
    command except [stats] requires exactly one graph field, and [stats]
    takes none.  ["edits"] names nodes by their graph names; it is
    required (non-empty) for [edit] and rejected for every other command,
    and each edit object is decoded as strictly as the request itself —
    unknown keys and unknown ops fail with the request's [id] echoed.

    Responses are built by {!Server}; this module only owns their error
    shape ({!error_response}) and the request codec.  The codec is strict:
    unknown fields are rejected, so a typo fails loudly instead of being
    silently ignored. *)

module Json = Mps_util.Json

type source =
  | Builtin of string  (** A built-in workload name, e.g. ["3dft"]. *)
  | Dfg_text of string  (** Inline DFG text. *)
  | Dot_text of string  (** Inline Graphviz DOT (the accepted subset). *)

type command = Select | Schedule | Pipeline | Certify | Portfolio | Edit | Stats

type edit =
  | Add_node of { node : string; color : string }
      (** Add a fresh node with the given (single-character) color. *)
  | Remove_node of string  (** Remove the node and every incident edge. *)
  | Add_edge of string * string  (** [src -> dst]; both must exist. *)
  | Remove_edge of string * string

val command_to_string : command -> string

type request = {
  id : Json.t option;  (** Echoed in the response, re-rendered. *)
  command : command;
  source : source option;  (** [None] only for {!Stats}. *)
  capacity : int option;
  span : int option;  (** Raw wire value: negative means unlimited. *)
  pdef : int option;
  priority : string option;  (** Validated: ["f1"] or ["f2"]. *)
  strategy : string option;
      (** Validated: ["eq8"] (the paper heuristic, the default) or
          ["auto"] (per-graph backend dispatch, [select]/[pipeline]
          only — the session reuses its warm feature vector). *)
  cluster : bool;
  budget : int option;  (** Raw wire value: negative means unlimited. *)
  max_nodes : int option;
  patterns : string list;  (** [schedule] only; [[]] = run selection. *)
  edits : edit list;  (** [edit] only: non-empty iff [command] is {!Edit}. *)
}

val make :
  ?id:Json.t ->
  ?source:source ->
  ?capacity:int ->
  ?span:int ->
  ?pdef:int ->
  ?priority:string ->
  ?strategy:string ->
  ?cluster:bool ->
  ?budget:int ->
  ?max_nodes:int ->
  ?patterns:string list ->
  ?edits:edit list ->
  command ->
  request
(** A request with every unspecified option omitted from the wire. *)

type error = {
  err_id : Json.t option;
      (** The offending request's [id] when one could be recovered, so
          even a rejected request gets a correlatable response. *)
  message : string;
}

val request_to_line : request -> string
(** One line, no trailing newline, with every unset option omitted.
    Integers print exactly (the codec accepts them only up to 1e15 in
    magnitude), so two different requests never encode to one line. *)

val request_of_line :
  ?known:(string -> int -> (string * int) option) ->
  string ->
  (request, error) result
(** Parses one line.  Round-trips with {!request_to_line}:
    [request_of_line (request_to_line r) = Ok r] for every [r] it
    accepts.  [known] is offered the ["dfg"] member's string value
    before it is decoded, as {!Mps_util.Json.parse} offers it: a text
    it recognises is taken as it answers, physically.  The result is
    the same with or without it. *)

val error_response : id:Json.t option -> string -> Json.t
(** [{"id"?: id, "ok": false, "error": message}] — the response shape for
    a request that failed to parse, resolve or execute. *)
