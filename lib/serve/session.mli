(** The warm state of a scheduling service: everything worth keeping
    between requests, owned in one place.

    A session holds one {e entry} per distinct graph (keyed by a
    fingerprint of its canonical DFG text).  Each entry amortizes, per
    classification parameter set (capacity, span limit, enumeration
    budget), the expensive artifacts of the one-shot flow:

    - the {b classification} itself — antichain enumeration is the
      dominant cost on every non-trivial graph;
    - the {b pattern universe} it interned into — one universe {e per
      family}, never shared across parameter sets or graphs, so id
      assignment (first-visit enumeration order) is byte-identical to
      what a cold one-shot run produces;
    - a warm {b evaluation context} ({!Mps_scheduler.Eval.t}) over that
      universe, whose memo cache makes repeat set-costing a hash lookup;
    - the exact backend's {b ban list}, keyed by the search family
      (classification parameters + pdef + priority — the fingerprint
      under which {!Mps_select.Exact.search} documents its bans as
      reusable facts), so repeat certifications skip every
      already-costed set.

    Every operation reports whether it ran {e warm} (the classification
    was already cached) — the bit the service surfaces per response and
    counts in its telemetry.

    A session is single-writer mutable state: drive it from one domain.
    Parallelism happens {e inside} operations (classification fan-out,
    exact-search subtrees, portfolio strategies) through the session's
    pool, with the library's jobs-determinism guarantees, so results are
    identical for every pool size including none. *)

type t
type entry

val create : ?pool:Core.Pool.t -> unit -> t
(** A fresh session.  [pool], when given, is used by every parallel
    phase; its lifetime belongs to the caller. *)

val graph_count : t -> int
val request_count : t -> int

val classification_count : t -> int
(** How many cold classifications the session has ever computed — the
    number {!edit} is designed to keep flat: a warm edit migrates the base
    family instead of classifying the edited graph. *)

val note_request : t -> unit
(** Counts one protocol request against {!request_count}; the server
    calls it once per line, the session never guesses. *)

val intern : t -> Core.Dfg.t -> entry * bool
(** The session's entry for this graph, creating it if new; [true] when
    the graph was already known.  Fingerprinting goes through the
    canonical {!Core.Dfg_parse.to_string} text, so structurally
    identical graphs from different sources share one entry. *)

val graph : entry -> Core.Dfg.t
val fingerprint : entry -> string

val cache_stats : entry -> int * int
(** [(hits, misses)] summed over every evaluation context the entry
    owns. *)

val session_cache_stats : t -> int * int
(** {!cache_stats} summed over all entries, in interning order — the
    session-cumulative numbers [--stats] and the [stats] command
    report. *)

val classification :
  t ->
  entry ->
  capacity:int ->
  span_limit:int option ->
  budget:int option ->
  Core.Classify.t * bool
(** The cached classification for these parameters, computing (and
    caching) it on first use; [true] = cache hit.  Identical to what
    {!Core.Classify.compute} on a fresh universe returns. *)

(** {2 Request-level operations}

    Each mirrors one CLI subcommand exactly — same defaulting, same
    classification parameters, same result — so the one-shot commands
    can be thin clients over a throwaway session.  All take the full
    {!Core.Pipeline.options}; the classification key is derived from its
    [capacity], [span_limit] and [enumeration_budget] fields.  The
    returned bool is the warm bit described above. *)

val select_report :
  t -> entry -> options:Core.Pipeline.options -> Core.Select.report * bool

val auto_select :
  t ->
  entry ->
  options:Core.Pipeline.options ->
  rules:Core.Auto.rules ->
  Core.Auto.outcome * bool
(** The auto-selector on the entry's warm family: the feature vector is
    extracted once per fingerprint (graphs share it across families —
    features depend only on the graph) from the family context's cached
    analyses, and the dispatched backend is costed on the same context.
    The outcome is identical to a cold {!Core.Auto.select} with the same
    rules. *)

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
(** With [patterns = []], runs selection first (classifying under the
    options; [options.strategy] decides between the paper heuristic and
    {!auto_select}) and schedules the selected set; otherwise schedules
    the given set on a plain per-entry context exactly as
    {!Core.Multi_pattern.schedule} would.  Returns the patterns actually
    scheduled. *)

val pipeline :
  t -> Core.Dfg.t -> options:Core.Pipeline.options -> Core.Pipeline.t * bool
(** {!Core.Pipeline.run} through the session: clustering (when asked)
    first, then the cached classification, then
    {!Core.Pipeline.run_classified} on the warm context.  Takes the bare
    graph because clustering changes which entry is interned. *)

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
    reuse as {!exact}.  Takes the bare graph for the same reason as
    {!pipeline}. *)

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
    artifacts are cached per (edited graph, search family): repeating an
    edit request re-classifies and re-selects nothing.
    @raise Failure / @raise Core.Dfg.Cycle as {!apply_edits}. *)
