(** Exact pattern selection by certifying branch-and-bound.

    A brute-force search answers "what is the best pattern set?" by
    enumerating every set, which caps it at toy instances.  This backend
    answers the same question — over exactly the same search family, so
    the two agree wherever both terminate (the test suite keeps such an
    oracle and checks it) — with a branch-and-bound over the candidate
    pool in canonical id order, pruned by four sound rules:

    - {b span}: a structural lower bound (critical path, slot pressure,
      per-color load given the largest pattern still reachable in the
      subtree) already meets the incumbent, so nothing below can improve;
      and, before a completed set is costed, the {b covering} bound: no
      x with Σ x_p ≤ incumbent − 1 and Σ_p x_p·m_p(c) ≥ count(c) for
      every color c exists (see {!coverable}), so the set cannot beat the
      incumbent either;
    - {b color}: the Eq. 9-style feasibility test — the colors still
      reachable from the suffix plus one fabricated fallback cannot cover
      the graph, so the subtree holds no schedulable completion;
    - {b ban}: the completed set was already costed (or proven
      unschedulable) and sits in the ban list with its guide bound, so it
      is never evaluated twice;
    - {b dominance}: a candidate that is a proper subpattern of an
      already-chosen pattern is skipped.  Sound for the list scheduler
      because the selected-set of a subpattern is contained in its
      dominator's and both pattern priorities are monotone over it, so the
      subpattern never wins the strictly-greater argmax against its
      earlier-listed dominator: every completion using it has an
      equal-cycles twin without it, met later in the same subtree.

    Candidate sets are costed through one plain {!Mps_scheduler.Eval}
    context per search, every evaluated or infeasible completion is
    memoized in the ban list with an [Infeasible] or [Cost c] guide bound,
    and the search returns a {e certificate}: the optimal set, its cycles,
    the visited/pruned node accounting, the ban list, and whether the
    search ran to completion ([proven]).

    {2 Determinism and [--jobs]}

    The search is sequential: the seeds first, then the root subtrees
    once each in canonical order, each starting from the best incumbent
    the roots before it left.  Nothing depends on a worker count, so the
    certificate — optimal set, cycles, every counter, the full ban list —
    is the same for every [--jobs] value; a pool only speeds up the
    classification the search reads. *)

type pruning = {
  prune_span : bool;  (** Structural lower-bound cut. *)
  prune_color : bool;  (** Eq. 9-style coverage feasibility cut. *)
  prune_ban : bool;  (** Skip completions already in the ban list. *)
  prune_dominance : bool;  (** Skip candidates dominated by a chosen pattern. *)
}

val all_pruning : pruning
(** Every rule on — the default. *)

val no_pruning : pruning
(** Pure enumeration, the baseline the pruning gates are measured against. *)

type bound =
  | Infeasible  (** The set cannot schedule the graph (misses colors). *)
  | Cost of int  (** The set was costed: exactly this many cycles. *)

type ban_entry = {
  banned : Mps_pattern.Pattern.t list;
      (** The completed set, in its canonical evaluation order — re-costing
          it in this exact order reproduces a [Cost] bound verbatim. *)
  bound : bound;  (** Its guide bound. *)
}

type stats = {
  nodes_visited : int;  (** Branch nodes entered (root included). *)
  pruned_span : int;
  pruned_color : int;
  pruned_ban : int;
  pruned_dominance : int;
      (** Subtrees cut, by rule; [pruned_span] also counts the completed
          sets the covering bound skipped. *)
  evaluated : int;  (** Completed sets costed through [Eval]. *)
}

type certificate = {
  optimal : Mps_pattern.Pattern.t list;
      (** The best set found; [[]] if nothing schedulable exists. *)
  optimal_cycles : int;  (** Its cycles; [max_int] if none. *)
  stats : stats;
  bans : ban_entry list;
      (** The persistent ban list, in discovery order, deduplicated. *)
  proven : bool;
      (** No subtree hit [max_nodes]: [optimal] is certified optimal over
          the search family (pool subsets of size ≤ pdef, plus one
          fabricated fallback) and all [seeds]. *)
}

val pool_order : Mps_pattern.Pattern.t -> Mps_pattern.Pattern.t -> int
(** The canonical candidate order: descending size, spelling to break
    ties.  A proper subpattern is strictly smaller than its dominator, so
    this is a linear extension of the proper-subpattern lattice — every
    dominator precedes every pattern it dominates, which is what makes the
    dominance prune fire on {e every} chosen-dominator pair.  The test
    suite's brute-force oracle enumerates in the same order. *)

val canonical_order :
  Mps_antichain.Classify.t ->
  Mps_pattern.Pattern.t list ->
  Mps_pattern.Pattern.t list
(** The canonical costing order of a set: pool members by {!pool_order},
    foreign patterns last by spelling.  Costing a set in this order
    through {!Mps_scheduler.Eval.cycles} reproduces exactly the cycles the
    search ascribes to it (the list scheduler breaks score ties by list
    position, so cycles are only well-defined relative to an order). *)

val coverable : int array array -> int array -> int -> bool
(** [coverable rows counts cycles]: is there an x ≥ 0 with
    Σ_p x_p ≤ [cycles] and Σ_p x_p·[rows.(p).(c)] ≥ [counts.(c)] for every
    color c?  A list schedule that commits pattern p in x_p of its cycles
    places at most [rows.(p).(c)] nodes of color c each time, so a set
    whose multiplicity rows are not coverable for [cycles] cannot schedule
    a graph with these per-color node counts in [cycles] cycles.  Decided
    exactly, by a depth-first search over x with a per-color and
    slot-count bound; this is the decision {!search} makes before costing
    a completed set.
    @raise Invalid_argument if a row's length differs from [counts]'. *)

val search :
  ?priority:Mps_scheduler.Eval.pattern_priority ->
  ?pruning:pruning ->
  ?max_nodes:int ->
  ?seeds:Mps_pattern.Pattern.t list list ->
  ?bans:ban_entry list ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  certificate
(** Branch-and-bound over the classification's pattern pool.

    [seeds] (default none) are warm-start incumbents — typically the
    heuristic's or the portfolio's sets.  They are costed first (and
    ban-listed), so the reported optimum is the minimum over the search
    family {e and} the seeds: with seeds, the exact answer can only tie or
    beat them, which is what certification reports as the gap.  Without
    seeds the search family is exactly the brute-force oracle's: pool
    subsets of size ≤ pdef, plus one fabricated fallback.

    [bans] (default none) is a {e warm-start ban list} from a previous
    [search] over the same family — same graph, classification parameters,
    [pdef] and [priority] (a bound is only a fact relative to the canonical
    costing order all of those induce; the serve session keys its persisted
    lists on exactly that fingerprint).  Prior entries are never
    re-evaluated (they count as [exact.pruned.ban] hits when the ban rule
    is on, unless the covering bound skips them first) and the cheapest
    prior [Cost] set opens as the incumbent, so a
    warm re-search of an unchanged family does no [Eval] work at all and
    still returns the identical optimum.  The returned {!certificate.bans}
    holds {e newly discovered} entries only — append it to the persistent
    list you passed in.

    [max_nodes] (default [1_000_000]) caps the visited nodes of {e each}
    root subtree, so one deep subtree cannot starve the roots after it.
    A capped subtree clears [proven].

    Observability: runs under an ["exact"] span and reports
    [exact.nodes.visited], [exact.pruned.span], [exact.pruned.color],
    [exact.pruned.ban], [exact.pruned.dominance] and [exact.evaluated]
    counters, once per search.

    @raise Invalid_argument if [pdef < 1] or [max_nodes < 1], or if the
    graph has more colors than an OCaml int has bits ([Sys.int_size]):
    the search keeps a set of colors as one int mask. *)
