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

    {2 One request at a time, and determinism}

    {!run} reads one request line, executes it against the warm session
    and writes and flushes its response before it reads the next, so an
    interactive client gets each answer as soon as its request arrives.
    Requests execute in arrival order; intra-request parallelism
    (classification, exact search, portfolio) uses the pool's
    jobs-deterministic phases, so the full response stream — and every
    counter — is byte-identical for any [--jobs] value.

    Observability: each request runs under a ["serve.request"] span, with
    [serve.requests], [serve.errors], [serve.warm] and [serve.cold]
    counters. *)

val builtins : (string * (unit -> Core.Dfg.t)) list
(** The built-in workload table — the full {!Core.Suite} corpus, in
    corpus order — shared with the CLI's GRAPH argument so the wire
    protocol, the command line and the benches all accept the same
    names.

    Each thunk builds its graph on the first call and then returns that
    same value to every caller, from any domain (a domain-safe once-cell:
    two domains racing on the first call may both build, but only the
    first value published is ever returned).  A {!Core.Dfg.t} is
    immutable, so sharing it is safe as long as no caller writes into
    {!Core.Dfg.succ_array}'s arrays, which that function already
    forbids. *)

val resolve_source : Protocol.source -> (Core.Dfg.t, string) result
(** A request's graph: a built-in name reads {!builtins}, so every
    request naming it gets the one shared, read-only value (which lets
    {!Session.intern} recognise it without fingerprinting); DFG/DOT text
    is parsed through {!Core.Dfg_parse.of_string} into a fresh value. *)

val handle_line : Session.t -> string -> string
(** One request line to one response line (no trailing newline) — the
    whole protocol for callers that do their own transport (tests, the
    bench load generator). *)

val run : Session.t -> in_channel -> out_channel -> unit
(** The stdin/stdout service loop described above, until end of input:
    read a line, skip it if blank, answer it, flush.  Blank lines get no
    response. *)

(** {2 Unix-domain sockets}

    The transport behind [mpsched serve --listen] and [--connect]: the same
    line protocol over a stream socket.  The first listen or connect sets
    SIGPIPE to ignore, so a write to a vanished peer raises [Sys_error]
    instead of killing the process. *)

val listen_unix : path:string -> Unix.file_descr
(** Binds and listens on a Unix-domain socket at [path], unlinking a
    stale file there first.  @raise Unix.Unix_error on failure. *)

val serve_connection : Session.t -> Unix.file_descr -> unit
(** Blocks for the next connection on a listening socket, runs {!run} on
    it until the client closes its side, then closes it.  A read or write
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
(** The client loop: for each non-blank line of [requests], sends it,
    waits for its response and copies that line to [responses]; then
    closes the connection.  With only one request in flight, no request
    stream is long enough to fill the socket buffers in both directions.
    [Error] when a write fails, or the server's stream ends early or
    carries a line that is not JSON. *)
