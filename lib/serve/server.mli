(** The service loop: line-delimited requests in, line-delimited
    responses out, warm {!Session} state in between.

    Every ok response is one line of the shape

    {v
    { "id"?: any, "ok": true, "cmd": string, ...command fields...,
      "warm": bool,
      "stats": { "eval_cache": { "hits": int, "misses": int,
                                 "session_hits": int, "session_misses": int } } }
    v}

    where [warm] says an existing classification family served the
    request, whichever budget made it (or, for an explicit-pattern
    [schedule], an already-built context),
    and [eval_cache] reports the scheduler memo cache {e for this
    request} (the delta) and {e for the session so far} (cumulative).
    Cycle counts that are [max_int] (unschedulable) render as [null].  A
    request that fails — unparseable line, unknown graph, invalid
    options, unschedulable pattern set — gets
    {!Protocol.error_response}'s shape, and the session survives to
    serve the next line.  [stats] answers
    [{"id"?, "ok", "cmd", "requests", "graphs", "eval_cache": {"hits",
    "misses"}, "memo": {"hits", "misses"}, "evictions",
    "classifications", "texts": {"matched", "parsed"}}] for the session
    so far, [classifications] counting every cold classification
    computed, evicted entries' included ({!Session.classification_count}),
    and [texts] the inline graph texts that resolved to a live entry
    without a decode or a parse and those that were parsed
    ({!Session.text_stats}).

    {2 A repeated request is a lookup}

    [select], [schedule], [portfolio], [edit], and [pipeline] without
    [cluster] are memoized: the command fields of each ok response are
    rendered once into a body that the graph's session entry keeps
    ({!Session.recall}), under the request without its [id] and graph
    source ({!Protocol.request_to_line} of it).  A builtin name, DFG
    text and DOT text that describe one graph share one entry, and so
    one memo.  A repeat answers the stored body with ["warm":true] and a
    request [eval_cache] of [0] hits and [0] misses, since it runs no
    costing; the session totals read as they stand.  Everything else in
    the line is byte-identical to what recomputing it would answer: the
    body exists only because its first computation built the family or
    plain context that makes a recomputation warm, and that context lives
    as long as the entry and its memo.  An [edit] hit interns the edited
    graph again, as the computation does.  [certify] (whose [search]
    counts report ban-list reuse), a clustered [pipeline] (which interns
    the clustered graph), [stats] and any request that failed are never
    stored.

    Inline ["dfg"] text whose bytes in the line are a live entry's
    canonical text as {!Mps_util.Json.to_line} escapes it
    ({!Session.lookup}) is that entry's text: it is neither decoded nor
    parsed, and resolves to the entry's graph.  Any other spelling or
    text is decoded and parses as {!resolve_source} does.

    {2 One request at a time, and determinism}

    {!run} reads one request line, executes it against the warm session
    and writes and flushes its response before it reads the next, so an
    interactive client gets each answer as soon as its request arrives.
    Requests execute in arrival order; intra-request parallelism
    (classification, exact search, portfolio) uses the pool's
    jobs-deterministic phases, so the full response stream — and every
    counter — is byte-identical for any [--jobs] value.

    Observability: each request runs under a ["serve.request"] span, with
    [serve.requests], [serve.errors], [serve.warm], [serve.cold] and
    [serve.edit] counters (a memo hit counts as the request it repeats
    did), plus {!Session}'s [serve.memo.hits], [serve.memo.misses] and
    [serve.evictions]. *)

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
    is always parsed through {!Core.Dfg_parse.of_string} into a fresh
    value (only {!handle_line} consults the session's canonical texts). *)

val handle_line : Session.t -> string -> string
(** One request line to one response line (no trailing newline) — the
    whole protocol for callers that do their own transport (tests, the
    bench load generator). *)

val members : (string * Mps_util.Json.t) list -> string
(** The members of an object as {!Mps_util.Json.to_line} renders them
    between its braces. *)

val splice :
  (string * Mps_util.Json.t) list ->
  string ->
  (string * Mps_util.Json.t) list ->
  string
(** [splice head body tail] is the object line with [head]'s members,
    then the rendered member run [body] ([""] for none), then [tail]'s:
    [splice head (members fields) tail] is
    [Json.to_line (Obj (head @ fields @ tail))].  It is framed in one
    buffer sized from [body], which is copied once.  Every ok response
    is spliced so, from its head ([id], [ok], [cmd]), its body and its
    [warm]/[stats] tail, a memo hit and a computed answer alike. *)

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
