(** The warm state of a scheduling service: everything worth keeping
    between requests, owned in one place.

    A session holds one {e entry} per distinct graph (keyed by a
    fingerprint of its canonical DFG text).  Each entry amortizes, per
    {e family} of classification parameters, the expensive artifacts of
    the one-shot flow:

    - the {b classification} itself — antichain enumeration is the
      dominant cost on every non-trivial graph;
    - the {b pattern universe} it interned into — one universe {e per
      family}, never shared across families or graphs, so id assignment
      (first-visit enumeration order) is byte-identical to what a cold
      one-shot run produces;
    - a warm {b evaluation context} ({!Mps_scheduler.Eval.t}) over that
      universe, built on the enumeration context's levels and
      reachability, whose memo cache makes repeat set-costing a hash
      lookup;
    - the {b selections} made on it ({!selection_cap}): Fig. 7's report
      per (selection parameters, Pdef) and the auto-selector's outcome
      per (rule table, Pdef), which read neither the request's priority
      nor its command, so [select], [schedule], [pipeline], [certify] and
      [edit] asking for one Pdef select once.

    Families are keyed by capacity and span limit.  A classification the
    enumeration budget did not truncate is {e complete}: a budgeted walk
    of a complete pool visits every antichain in the same order, so it
    builds the identical classification, and the complete family serves
    every request with its capacity and span whose budget is absent or at
    least its antichain count.  A truncated classification serves only its
    own budget.  The unbudgeted phase commands and the budgeted
    [pipeline] and [certify] thus share one family on every graph the
    budget does not cut.

    The exact backend's {b ban list} is kept per search family
    (capacity, span limit, budget, pdef and priority — the fingerprint
    under which {!Mps_select.Exact.search} documents its bans as reusable
    facts), so repeat certifications skip every already-costed set.

    Every operation reports whether it ran {e warm} (a family serving
    it, made for this budget or another, already existed) — the bit the
    service surfaces per response and counts in its telemetry.

    Each entry also keeps its graph's canonical text ({!text}), that
    text as a JSON string spells it, for {!lookup}, and a {b response
    memo} ({!recall}, {!remember}) that the server fills with rendered
    answers.  Everything an entry holds lives and dies with it.

    {b A bounded session.}  A session keeps at most [max_graphs] entries.
    Interning a new graph when it is full first evicts the least
    recently used entry: the one whose last {!intern} came at the lowest
    request index ({!note_request}), ties going to the one interned
    first.  The order depends only on the request stream, so it is the
    same at any pool size.  The entry's families, ban lists, migrations,
    memo and text go with it, and a later request for its graph answers
    cold.  The totals stay cumulative: {!session_cache_stats} keeps the
    evicted entries' eval-cache counts, and {!classification_count}
    every classification ever computed.

    A session is single-writer mutable state: drive it from one domain.
    Parallelism happens {e inside} operations (classification fan-out,
    exact-search subtrees, portfolio strategies) through the session's
    pool, with the library's jobs-determinism guarantees, so results are
    identical for every pool size including none. *)

type t
type entry

val create : ?pool:Core.Pool.t -> ?max_graphs:int -> unit -> t
(** A fresh session holding at most [max_graphs] entries (default 64).
    [pool], when given, is used by every parallel phase; its lifetime
    belongs to the caller.
    @raise Invalid_argument when [max_graphs < 1]. *)

val graph_count : t -> int
(** Live entries: never more than [max_graphs]. *)

val request_count : t -> int

val classification_count : t -> int
(** How many cold classifications the session has ever computed — the
    number {!edit} is designed to keep flat (a warm edit migrates the base
    family instead of classifying the edited graph) and a complete family
    keeps flat across budgets.  Evictions never lower it. *)

val eviction_count : t -> int
(** Entries evicted so far. *)

val note_request : t -> unit
(** Counts one protocol request against {!request_count}; the server
    calls it once per line, the session never guesses.  The count is
    the request index the eviction order reads. *)

val intern : t -> Core.Dfg.t -> entry * bool
(** The session's entry for this graph, creating it if new (and evicting
    one first if the session is full); [true] when the graph was already
    known.  Either way the entry counts as used by the current request.

    Two steps.  First the value itself is looked up by physical identity
    among the graphs live entries were created from and, per entry, the
    last other value that fingerprinted to it, so a value interned before
    (a built-in from [Server.resolve_source], an entry's own {!graph})
    is found without serialising it, even when the entry was made from
    parsed text.  That table holds at most two graphs per entry, so it
    grows with entries, not with requests.  Otherwise the graph is
    fingerprinted through the canonical {!Core.Dfg_parse.to_string}
    text, so structurally identical graphs from different sources (a
    parsed copy of known text, an edit that rebuilds a known graph)
    share one entry; the canonical-text digest stays the one definition
    of graph identity. *)

val lookup : t -> string -> int -> (string * int) option
(** The session's escaped-body lookup, built once with the session, for
    {!Protocol.request_of_line}'s [known]: [lookup t s i] is
    [Some (text, j)] when the bytes of [s] from [i] are a live entry's
    canonical {!text} exactly as {!Mps_util.Json.escaped} spells it and
    [s.[j]] is the quote that closes them; [text] is the entry's own
    string, not a copy.  Any other spelling of the text ([\u000a] for a
    newline, [\/] for a slash), any other text, and DOT answer [None]
    and are decoded.  An entry is passed over, before any byte is
    compared, unless the line holds a quote where its spelling would
    end; the compare copies the bytes into a buffer the entry keeps, so
    it allocates nothing after the entry's first.  A lookup is not a use: {!intern} decides
    the eviction order alone, so a request touches the same entries
    however it spells its graph, and an evicted entry no longer
    matches. *)

val known_graph : t -> Protocol.source -> Core.Dfg.t option
(** The graph of the live entry whose own {!text} a [Dfg_text] source
    carries, recognised by identity: a text {!lookup} answered resolves
    to that entry's graph without a parse.  [None] for every other
    source.  Each inline source, DFG or DOT, counts as matched or, when
    [None] leaves it to be parsed, as parsed ({!text_stats}); a builtin
    name counts as neither. *)

val text_stats : t -> int * int
(** [(matched, parsed)]: the inline sources {!known_graph} resolved and
    left to a parse, over the session's life. *)

val graph : entry -> Core.Dfg.t
val fingerprint : entry -> string

val text : entry -> string
(** The canonical {!Core.Dfg_parse.to_string} text of {!graph}, the one
    {!fingerprint} digests. *)

val cache_stats : entry -> int * int
(** [(hits, misses)] summed over every evaluation context the entry
    owns. *)

val session_cache_stats : t -> int * int
(** {!cache_stats} summed over the live entries, plus what evicted
    entries held when they went — the session-cumulative numbers
    [--stats] and the [stats] command report.  Neither component ever
    decreases.  The session keeps the sum: only an operation that can
    run an evaluation context (every request-level operation below, and
    {!classification}) marks it stale, and the next call folds the live
    entries again, so a call after {!intern}, {!recall} or {!remember}
    alone costs nothing. *)

(** {2 The response memo}

    Each entry keeps the answers the server rendered for requests on its
    graph, keyed by the request without its [id] and graph source.  Its
    keys and bodies take at most {!memo_cap} bytes: an answer that would
    pass the cap empties the memo first, and one larger than the cap is
    not stored. *)

type answer = {
  body : string;  (** The command's response fields, rendered. *)
  edited : Core.Dfg.t option;
      (** [edit]: the edited graph, which a hit interns again. *)
}

val memo_cap : int
(** 1 MiB, per entry. *)

val recall : t -> entry -> string -> answer option
(** The answer stored under this key; counts a memo hit or miss. *)

val remember : entry -> string -> answer -> unit
(** Stores an answer under a key {!recall} missed, within {!memo_cap}. *)

val memo_bytes : entry -> int
(** Key and body bytes the entry's memo holds: at most {!memo_cap}. *)

val memo_stats : t -> int * int
(** [(hits, misses)] of {!recall} over the session's life. *)

val classification :
  t ->
  entry ->
  capacity:int ->
  span_limit:int option ->
  budget:int option ->
  Core.Classify.t * bool
(** The family classification serving these parameters, computing (and
    caching) it when none does; [true] = an existing family served.
    Identical to what {!Core.Classify.compute} on a fresh universe
    returns. *)

val selection_cap : int
(** 64: the selections one family keeps. *)

val selection_size_cap : int
(** 16,384: the list entries one family's selections hold (about 1 MiB),
    counting each selection's patterns and, per Fig. 7 step, the step,
    its scored candidates and its deletions.  A selection that would take the memo
    past either cap empties it first, and one larger than this cap alone
    is not kept, so a stream of distinct Pdefs, or of huge reports (a Pdef
    in the thousands on a graph of many colors), never grows a session
    past the caps per family. *)

val selections : entry -> int
(** Selections the entry's families keep: at most {!selection_cap} per
    family. *)

(** {2 Request-level operations}

    Each mirrors one CLI subcommand exactly — same defaulting, same
    classification parameters, same result — so the one-shot commands
    can be thin clients over a throwaway session.  All take the full
    {!Core.Pipeline.options}; the family is found from its [capacity],
    [span_limit] and [enumeration_budget] fields, and a selection from its
    [strategy], [selection] and [pdef].  The returned bool is the warm bit
    described above. *)

val select_report :
  t -> entry -> options:Core.Pipeline.options -> Core.Select.report * bool
(** Fig. 7's report on the family, whatever [options.strategy] says: the
    memoized one when this (selection parameters, Pdef) was selected on
    the family before. *)

val auto_select :
  t ->
  entry ->
  options:Core.Pipeline.options ->
  rules:Core.Auto.rules ->
  Core.Auto.outcome * bool
(** The auto-selector on the entry's warm family: the feature vector is
    extracted once per fingerprint (graphs share it across families —
    features depend only on the graph) from the family context's cached
    analyses, and the dispatched backend is costed on the same context —
    beam's finalists included.  The outcome is kept per (rules, Pdef), so
    a repeat costs nothing.  It is identical to a cold {!Core.Auto.select}
    with the same rules. *)

val set_cycles :
  t -> entry -> options:Core.Pipeline.options -> Core.Pattern.t list -> int
(** Cycles of a pattern set on the entry's graph, through the family's
    memoizing context ([options.priority] applies).
    @raise Core.Eval.Unschedulable as {!Core.Eval.cycles} does. *)

val schedule :
  t ->
  entry ->
  options:Core.Pipeline.options ->
  ?trace:bool ->
  patterns:Core.Pattern.t list ->
  unit ->
  Core.Pattern.t list * Core.Eval.result * bool
(** With [patterns = []], selects first (classifying under the options;
    [options.strategy] decides between the paper heuristic and
    {!auto_select}, through the family's memo) and schedules the selected
    set; otherwise schedules
    the given set on a plain per-entry context exactly as
    {!Core.Multi_pattern.schedule} would.  Returns the patterns actually
    scheduled. *)

val pipeline :
  t -> Core.Dfg.t -> options:Core.Pipeline.options -> Core.Pipeline.t * bool
(** {!Core.Pipeline.run} through the session: clustering (when asked)
    first, then the family's classification, then
    {!Core.Pipeline.run_classified} on the warm context with the family's
    selection.  Takes the bare graph because clustering changes which
    entry is interned. *)

val portfolio :
  t -> entry -> options:Core.Pipeline.options -> Core.Portfolio.outcome * bool

val exact :
  t ->
  entry ->
  options:Core.Pipeline.options ->
  ?pruning:Core.Exact.pruning ->
  ?max_nodes:int ->
  unit ->
  Core.Exact.certificate * bool
(** {!Core.Exact.search} warm: prior ban entries for this search family
    are passed in, and the newly discovered ones are appended to the
    persistent list afterwards.  The optimal set and cycles are
    identical to a cold search; only the accounting shows the reuse. *)

val certify :
  t ->
  Core.Dfg.t ->
  options:Core.Pipeline.options ->
  ?max_nodes:int ->
  unit ->
  Core.Pipeline.certification * bool
(** {!Core.Pipeline.certify} through the session, with the same ban-list
    reuse as {!exact} and the family's Fig. 7 selection as its heuristic.
    Takes the bare graph for the same reason as {!pipeline}. *)

val apply_edits : Core.Dfg.t -> Protocol.edit list -> Core.Dfg.t
(** The graph after the edits, applied in order by node name and rebuilt
    through {!Core.Dfg.of_alist} (ids reassigned in list order; surviving
    base nodes first, added nodes after, both in original order).
    @raise Failure on a precondition violation (duplicate node, unknown
    name, duplicate or missing edge, self-edge, multi-character color, or
    an empty result).
    @raise Core.Dfg.Cycle if an added edge closes a cycle. *)

val edit :
  t ->
  Core.Dfg.t ->
  options:Core.Pipeline.options ->
  edits:Protocol.edit list ->
  entry * Core.Pattern.t list * bool * Core.Eval.result * bool
(** Online rescheduling: applies the edits to the base graph, interns the
    edited graph under its own fingerprint, and schedules it {e without a
    cold re-classification} — the pattern set selected on the (cached)
    base classification migrates over, with fabricated patterns patching
    any colors the edit left uncovered (capacity colors at a time, the
    Fig. 7 fallback shape).  The migrated set is scheduled in full
    fidelity ({!Core.Eval.schedule}) for the response rows.  Returns
    (edited entry, patterns actually scheduled, whether coverage was
    patched, the schedule, warm bit of the {e base} family).  Migrated
    artifacts are cached per (edited graph, base graph, search family):
    repeating an edit request re-classifies and re-selects nothing, and
    an edit from another base that reaches the same graph migrates its
    own base's selection.
    @raise Failure / @raise Core.Dfg.Cycle as {!apply_edits}. *)
