(** The service loop: line-delimited requests in, line-delimited
    responses out, warm {!Session} state in between.

    Every ok response is one line of the shape

    {v
    { "id"?: any, "ok": true, "cmd": string, ...command fields...,
      "warm": bool,
      "stats": { "eval_cache": { "hits": int, "misses": int,
                                 "session_hits": int, "session_misses": int } } }
    v}

    where [warm] says the request hit an already-cached classification,
    and [eval_cache] reports the scheduler memo cache {e for this
    request} (the delta) and {e for the session so far} (cumulative) —
    the per-request/per-session split ISSUE'd for [--stats].  Cycle
    counts that are [max_int] (unschedulable) render as [null].  A
    request that fails — unparseable line, unknown graph, invalid
    options, unschedulable pattern set — gets
    {!Protocol.error_response}'s shape, and the session survives to
    serve the next line.

    {2 Batching and determinism}

    {!run} reads up to [batch] lines, parses and resolves their graphs
    in parallel across the session's pool (a pure fan-out through
    {!Core.Pool.map}, results in submission order), then {e executes
    them sequentially in submission order} against the warm session and
    writes the responses in that same order.  Intra-request parallelism
    (classification, exact search, portfolio) uses the pool's
    jobs-deterministic phases, so the full response stream — and every
    counter — is byte-identical for any [--jobs] value.

    Observability: each batch runs under a ["serve.batch"] span
    (observing [serve.batch.size]), each request under a
    ["serve.request"] span, with [serve.requests], [serve.errors],
    [serve.warm] and [serve.cold] counters. *)

val builtins : (string * (unit -> Core.Dfg.t)) list
(** The built-in workload table — the full {!Core.Suite} corpus, in
    corpus order — shared with the CLI's GRAPH argument so the wire
    protocol, the command line and the benches all accept the same
    names. *)

val resolve_source : Protocol.source -> (Core.Dfg.t, string) result
(** A request's graph: built-in lookup, or DFG/DOT text through
    {!Core.Dfg_parse.of_string}.  Pure — safe to fan out. *)

val handle_line : Session.t -> string -> string
(** One request line to one response line (no trailing newline) — the
    whole protocol for callers that do their own transport (tests, the
    bench load generator). *)

val run : ?batch:int -> Session.t -> in_channel -> out_channel -> unit
(** The stdin/stdout service loop described above, until end of input.
    Blank lines are skipped.  [batch] (default 32, clamped to ≥ 1) caps
    how many requests are read ahead for parse fan-out; it never changes
    any response, only pipelining. *)

(** {2 Unix-domain sockets}

    The transport behind [mpsched serve --listen] and [--connect]: the same
    line protocol over a stream socket.  The first listen or connect sets
    SIGPIPE to ignore, so a write to a vanished peer raises [Sys_error]
    instead of killing the process. *)

val listen_unix : path:string -> Unix.file_descr
(** Binds and listens on a Unix-domain socket at [path], unlinking a
    stale file there first.  @raise Unix.Unix_error on failure. *)

val serve_connection : ?batch:int -> Session.t -> Unix.file_descr -> unit
(** Blocks for the next connection on a listening socket, runs {!run} on
    it until the client half-closes, then closes it.  A read or write
    failure on the connection (the client left before reading its
    responses) ends that connection only: the session, warm caches
    included, survives for the next one. *)

val connect_unix : path:string -> in_channel * out_channel
(** Client side: a connection to the server listening at [path].
    @raise Unix.Unix_error when nothing listens there. *)

val forward :
  in_channel * out_channel ->
  requests:in_channel ->
  responses:out_channel ->
  (unit, string) result
(** The client loop: sends every line of [requests], half-closes, then
    copies one response line per non-blank request to [responses] and
    closes the connection.  [Error] when the server's stream ends early or
    carries a line that is not JSON. *)
