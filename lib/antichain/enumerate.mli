(** Exhaustive antichain enumeration under size and span limits (§5.1).

    "The pattern generation method finds all antichains of size C first" —
    in fact all sizes 1..C are needed (patterns may contain dummies), and
    "the number of antichains decreases by setting a limitation to the span",
    which is also what makes enumeration tractable: span is monotone under
    adding nodes, so the search prunes whole subtrees.

    The walk visits node ids in increasing order; within one [iter] the
    antichains appear in lexicographic order of their id lists.

    The search tree partitions by its root: every antichain belongs to
    exactly one root subtree, the one of its minimum node id.
    {!count_matrix} and {!Classify.compute} (through {!iter_root}) fan
    those subtrees out across a {!Mps_exec.Pool} and merge per-root results
    in root order, so their output is identical to the sequential walk,
    whatever the worker count.  Budgeted enumeration stays sequential (a
    budget cuts a prefix of the visit order, which is meaningless under
    reordering), hence [iter] takes no pool. *)

type ctx
(** Precomputed per-graph state (reachability bitsets + levels), reusable
    across enumerations with different limits.  Read-only after
    construction, so one [ctx] is safely shared by all domains of a
    pool. *)

val make_ctx : Mps_dfg.Dfg.t -> ctx

val ctx_graph : ctx -> Mps_dfg.Dfg.t
val ctx_levels : ctx -> Mps_dfg.Levels.t
val ctx_reachability : ctx -> Mps_dfg.Reachability.t

exception Budget_exhausted
(** Raised out of {!iter} when [budget] antichains have been emitted.
    Catch it only if partial results are meaningful; the high-level entry
    points ({!Classify.compute}) surface the truncation as a flag
    instead. *)

val iter :
  ?span_limit:int ->
  ?budget:int ->
  max_size:int ->
  ctx ->
  f:(Antichain.t -> unit) ->
  unit
(** Calls [f] on every non-empty antichain of size ≤ [max_size] whose span
    is ≤ [span_limit] (default: unlimited).  [budget] bounds the number of
    antichains visited: enumeration is exponential in graph width (a layer
    of k mutually parallel nodes alone contributes C(k,5) antichains), so
    wide graphs need either a tight span limit or a budget.
    @raise Budget_exhausted after emitting [budget] antichains.
    @raise Invalid_argument if [max_size < 1], [span_limit < 0], or
    [budget < 0]. *)

val iter_root :
  ?span_limit:int ->
  max_size:int ->
  ctx ->
  f:(Antichain.t -> unit) ->
  int ->
  unit
(** [iter_root ... root] visits only the antichains whose minimum node id
    is [root], in the same relative order [iter] would.  Running it for
    every node id in order is exactly [iter]; running the roots on
    different domains and merging in root order is the parallel
    enumeration — {!Classify.compute} builds its parallel path on this.
    @raise Invalid_argument on bad limits or if [root] is out of range. *)

val count_matrix :
  ?pool:Mps_exec.Pool.t -> max_size:int -> max_span:int -> ctx -> int array array
(** [m.(span_limit).(size)] = number of antichains of that exact size with
    span ≤ that limit — Table 5 in one pass.  Antichains with span beyond
    [max_span] are not counted anywhere.  [pool] counts the root subtrees
    on its domains; the matrix is the same for every pool size. *)
