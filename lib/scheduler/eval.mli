(** A reusable evaluation context for multi-pattern scheduling (§4, Fig. 3).

    Every search strategy — annealing, beam finalist scoring, portfolio,
    exhaustive, multi-kernel selection — asks the same question thousands of
    times: {e how many cycles does this pattern set cost on this graph?}
    Answering through {!Multi_pattern.schedule} pays for the reachability
    matrix, the ALAP/height levels, the node-priority ranks and the color
    tables on every call, then builds a {!Schedule.t} nobody looks at.

    An [Eval.t] amortizes all of that per graph.  {!make} computes the
    graph analyses once; {!cycles} runs the list-scheduling inner loop on
    dense int arrays (preallocated worklists, in-place candidate
    maintenance, no trace rows, no schedule construction) and memoizes the
    result per pattern set, so re-costing an already-seen set is a hash
    lookup.  {!schedule} is the full-fidelity path over the same context —
    trace rows and the declared-pattern table — and is what
    {!Multi_pattern.schedule} now wraps, so both paths share one
    implementation of the paper's algorithm and stay byte-identical.

    {2 The memo cache}

    The cache key is the pattern-id {e list} (interned in a private arena
    owned by the context, so [Pattern.t] copies don't matter) plus the
    pattern priority.  Order is part of the key on purpose: list position
    decides score ties in the scheduler, so two orderings of one multiset
    can produce different schedules and must not share an entry.  Hits and
    misses are reported through the
    [eval.cache.hits] / [eval.cache.misses] counters, and a hit {e replays}
    the counter aggregates of the evaluation it skips
    ([schedule.ready]/[schedule.placed]/[schedule.cycles], via
    {!Mps_obs.Obs.merge}), so [--stats] tables are identical whether or not
    a result came from the cache.

    {2 Determinism and [--jobs]}

    A context is a mutable arena (scratch buffers, memo table, private
    pattern arena): use it from one domain at a time.  Parallel phases give
    each pool task its own context — or, like portfolio, collect candidate
    sets in parallel and cost them on one shared context in submission
    order — which keeps every published determinism guarantee: results and
    counter totals are bit-identical for every [--jobs] value. *)

exception Unschedulable of Mps_dfg.Color.t list
(** Raised when candidates remain but no allowed pattern covers any of
    their colors; re-exported as {!Multi_pattern.Unschedulable}. *)

type pattern_priority = F1 | F2
(** Pattern priority: F1 = |S(p̄,CL)| (Eq. 6), F2 = Σ f(n) over the
    selected set (Eq. 7, the paper's refinement and the default). *)

type trace_row = {
  row_cycle : int;  (** 1-based, as in Table 2. *)
  row_candidates : int list;  (** CL sorted by decreasing node priority. *)
  row_selected : (Mps_pattern.Pattern.t * int list) list;
      (** S(p̄, CL) per allowed pattern, in the given pattern order. *)
  row_chosen : int;  (** Index into [row_selected] of the committed pattern. *)
}

type result = {
  schedule : Schedule.t;
  trace : trace_row list;  (** In cycle order; [] unless [trace] was set. *)
}

type t
(** The per-graph evaluation context. *)

val make : ?universe:Mps_pattern.Universe.t -> ?delta:bool -> Mps_dfg.Dfg.t -> t
(** Computes the graph analyses (reachability, levels, node priorities,
    color index) and allocates the scratch buffers once.  [universe], when
    given, plays two roles: {!schedule} hash-conses its patterns through it
    (exactly as {!Multi_pattern.schedule} documents), and {!cycles_ids}
    interprets ids in it.  The context never interns into the caller's
    universe on the fast path — memo keys live in a private arena — so
    sharing a universe across contexts stays safe.

    [delta] (default [false]) makes evaluations record replay data —
    per-cycle candidate color masks plus geometric-stride checkpoints of
    the engine state — so {!cycles_delta} can resume a memoized run
    mid-schedule instead of starting over.  Recording costs an O(n) copy
    per checkpoint and a mask OR per cycle, so it is opt-in: move-loop
    searches (annealing, beam, serve edits) turn it on, one-shot
    costing does not.  On graphs with more than 62 colors the masks do not
    fit a single int and the flag is silently ignored ({!cycles_delta}
    then always takes the full-evaluation fallback). *)

val graph : t -> Mps_dfg.Dfg.t
(** The graph the context was built for. *)

val reachability : t -> Mps_dfg.Reachability.t
val levels : t -> Mps_dfg.Levels.t
val node_priority : t -> Node_priority.t
(** The amortized per-graph analyses, for callers that need them beyond
    scheduling (the context computed them anyway). *)

val cycles :
  ?priority:pattern_priority -> t -> Mps_pattern.Pattern.t list -> int
(** Schedule length of the pattern set on the context's graph — the fast
    path: dense-array list scheduling, memoized per (pattern list,
    priority).  Exactly
    [Schedule.cycles (Multi_pattern.schedule ~patterns g).schedule], with
    the same tie-breaking (earliest pattern in the given order wins equal
    scores).
    @raise Invalid_argument if [patterns] is empty.
    @raise Unschedulable as {!Multi_pattern.schedule} does. *)

val cycles_ids :
  ?priority:pattern_priority -> t -> Mps_pattern.Pattern.Id.t list -> int
(** {!cycles} on ids of the universe passed to {!make} — the zero-copy
    entry point for id-based searches (annealing).
    @raise Invalid_argument if the context was made without a universe or
    [ids] is empty. *)

val cycles_delta :
  ?priority:pattern_priority ->
  ?removed:Mps_pattern.Pattern.t ->
  t ->
  prev:Mps_pattern.Pattern.t list ->
  added:Mps_pattern.Pattern.t ->
  int
(** Cycle count of the set obtained from [prev] by one move — replacing the
    first occurrence of [removed] with [added] (a swap), or appending
    [added] when [removed] is omitted (a grow).  Returns exactly what
    {!cycles} would return on the moved set (same memo key, same cache and
    [schedule.*] counter accounting), but when the context records replay
    data ({!make}'s [delta]) and the [prev] evaluation is memoized, the
    shared prefix — every cycle before the first one where [removed] or
    [added] could select a candidate — is reused and only the suffix is
    replayed from the nearest checkpoint.  [eval.delta.hits] /
    [eval.delta.fallbacks] / [eval.delta.cycles_saved] count reuses,
    full-evaluation fallbacks, and the cycles not re-stepped; they are
    additive on top of the unchanged [eval.cache.*] accounting, so every
    published stream stays byte-identical whether a result came through
    the delta path or the full one.
    @raise Invalid_argument if [prev] is empty or [removed] is given but
    not a member of [prev].
    @raise Unschedulable as {!cycles} does. *)

val cycles_delta_ids :
  ?priority:pattern_priority ->
  ?removed:Mps_pattern.Pattern.Id.t ->
  t ->
  prev:Mps_pattern.Pattern.Id.t list ->
  added:Mps_pattern.Pattern.Id.t ->
  int
(** {!cycles_delta} on ids of the universe passed to {!make} — the
    zero-copy entry point for id-based move loops (annealing swaps, beam
    pool extensions).
    @raise Invalid_argument as {!cycles_delta}, or if the context was made
    without a universe. *)

val schedule :
  ?priority:pattern_priority ->
  ?trace:bool ->
  t ->
  patterns:Mps_pattern.Pattern.t list ->
  result
(** The full-fidelity scheduler on the shared context: everything
    {!Multi_pattern.schedule} documents (trace rows, declared-pattern
    table, hash-consing through the context's universe).
    Never consults the memo cache — a schedule is as order-sensitive as
    the paper's algorithm, and callers wanting speed use {!cycles}. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the memo cache so far — the same numbers the
    [eval.cache.*] counters report, exposed for tests and benches. *)

val delta_stats : t -> int * int * int
(** [(hits, fallbacks, cycles_saved)] of the delta path so far — the same
    numbers the [eval.delta.*] counters report, exposed for tests and
    benches.  A hit reused a memoized prefix (fully, or up to a
    checkpoint); a fallback ran a full evaluation because the prefix
    condition failed (divergence at cycle 0, unmemoized or unrecorded
    [prev], or a no-op swap of an unmemoized set); [cycles_saved] totals
    the cycles the hits did not re-step. *)
