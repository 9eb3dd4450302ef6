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
    These are the only two ways a set is costed: a cache miss runs the
    loop from cycle 0 to the end (or to a caller's [limit], see
    {!cycles_ids}), however close the set is to one costed before it, and
    move loops (annealing swaps, beam finalists) gain only from the memo
    cache.

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

val make :
  ?universe:Mps_pattern.Universe.t ->
  ?levels:Mps_dfg.Levels.t ->
  ?reachability:Mps_dfg.Reachability.t ->
  Mps_dfg.Dfg.t ->
  t
(** Computes the graph analyses (reachability, levels, node priorities,
    color index) and allocates the scratch buffers once.  [universe], when
    given, plays two roles: {!schedule} hash-conses its patterns through it
    (exactly as {!Multi_pattern.schedule} documents), and {!cycles_ids}
    interprets ids in it.  The context never interns into the caller's
    universe on the fast path — memo keys live in a private arena — so
    sharing a universe across contexts stays safe.  [levels] and
    [reachability], when given, are analyses of this graph the caller
    already owns (the antichain enumeration context computes both),
    used instead of computing them again — same context. *)

val graph : t -> Mps_dfg.Dfg.t
(** The graph the context was built for. *)

val reachability : t -> Mps_dfg.Reachability.t
val levels : t -> Mps_dfg.Levels.t
(** The amortized per-graph analyses, for callers that need them beyond
    scheduling (the context computed or was given them anyway). *)

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
  ?priority:pattern_priority ->
  ?limit:int ->
  t ->
  Mps_pattern.Pattern.Id.t list ->
  int
(** {!cycles} on ids of the universe passed to {!make} — the zero-copy
    entry point for id-based searches (annealing, beam, exact).

    [limit] (default [max_int], which is exactly {!cycles}) lets a search
    stop costing a set that cannot beat its incumbent.  The answer is
    [min c limit], where [c] is the set's cycles.  The run stops before a
    cycle once [cycle + Height(n) >= limit], n the highest-priority ready
    node: node priority orders by Height first, so n is the tallest ready
    node, the tallest unscheduled node is always ready, and its chain
    still needs Height cycles — a stopped run cannot finish below
    [limit].  A set that cannot schedule the graph raises
    {!Unschedulable} or, when the stop comes first, answers [limit].

    The memo holds finished runs only, and a hit answers [min c limit]
    (or raises).  A stopped run stores nothing: it counts one
    [eval.cache.misses], records [schedule.ready] and [schedule.placed]
    for the cycles it ran and no [schedule.cycles] sample, and the next
    call on the set is a miss again.
    @raise Invalid_argument if the context was made without a universe or
    [ids] is empty. *)

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
