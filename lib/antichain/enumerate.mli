(** Enumeration of every antichain under size and span limits (§5.1).

    "The pattern generation method finds all antichains of size C first" —
    in fact all sizes 1..C are needed (patterns may contain dummies), and
    "the number of antichains decreases by setting a limitation to the span",
    which is also what makes enumeration tractable: span is monotone under
    adding nodes, so the search prunes whole subtrees.

    The walk visits node ids in increasing order; within one [iter] the
    antichains appear in lexicographic order of their id lists.

    One depth-first walker does every enumeration: {!iter},
    {!count_matrix} and {!Classify.compute} all drive {!walk_root}.  It
    keeps the chosen nodes on an array stack and one candidate buffer per
    depth, so a step allocates nothing.

    The search tree partitions by its root: every antichain belongs to
    exactly one root subtree, the one of its minimum node id.
    {!count_matrix} and {!Classify.compute} fan those subtrees out across a
    {!Mps_exec.Pool} and merge per-root results in root order, so their
    output is identical to the sequential walk, whatever the worker count.
    Budgeted enumeration stays sequential (a budget cuts a prefix of the
    visit order, which is meaningless under reordering), hence [iter] takes
    no pool. *)

type ctx
(** Precomputed per-graph state, reusable across enumerations with
    different limits.  Read-only after construction, so one [ctx] is
    safely shared by all domains of a pool. *)

val make_ctx : Mps_dfg.Dfg.t -> ctx
(** Builds the graph's tables once: the parallel sets and ASAP/ALAP levels
    the walk reads, the level masks that admit a whole last level at once,
    and a dense color index per node. *)

val ctx_graph : ctx -> Mps_dfg.Dfg.t
val ctx_levels : ctx -> Mps_dfg.Levels.t
val ctx_reachability : ctx -> Mps_dfg.Reachability.t

val ctx_colors : ctx -> Mps_dfg.Color.t array
(** The graph's distinct colors in [Color.compare] order.  Read-only. *)

val ctx_color_index : ctx -> int array
(** Each node's color as an index into {!ctx_colors}, so sorting indices
    sorts colors.  Read-only. *)

exception Budget_exhausted
(** Raised out of {!iter} and {!walk_root} when [budget] antichains have
    been emitted.
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

val count_matrix :
  ?pool:Mps_exec.Pool.t -> max_size:int -> max_span:int -> ctx -> int array array
(** [m.(span_limit).(size)] = number of antichains of that exact size with
    span ≤ that limit — Table 5 in one pass.  Antichains with span beyond
    [max_span] are not counted anywhere.  [pool] counts the root subtrees
    on its domains; the matrix is the same for every pool size. *)

(** {2 The walker} *)

type walk
(** One walk's mutable state: the stack of chosen nodes, a candidate buffer
    per depth and the remaining budget.  Reused from root to root; one per
    domain. *)

val make_walk : ?span_limit:int -> ?budget:int -> max_size:int -> ctx -> walk
(** Limits as for {!iter}; [budget] counts antichains across every
    {!walk_root} of this walk.
    @raise Invalid_argument on the arguments {!iter} rejects. *)

val nodes : walk -> int array
(** The stack of chosen nodes, root first.  During a {!sink} callback at
    [depth], [nodes.(0..depth)] holds the antichain (for [leaves], its
    prefix) in increasing id order.  Read-only. *)

type sink = {
  visit : int -> int -> unit;
      (** [visit depth span]: [nodes.(0..depth)] is the next antichain, of
          that span. *)
  leaves : (int -> int array -> unit) option;
      (** [leaves depth set], when given, takes the last level in bulk:
          every member [j] of the word array [set] (word [i] holds nodes
          [i * Bitset.word_bits] on) makes [nodes.(0..depth)] plus [j] a
          maximum-size antichain within the span limit.  The walk visits
          them one by one instead when the budget cannot cover them all.
          [set] is the walk's buffer: read it before returning. *)
}

val walk_root : walk -> sink -> int -> unit
(** [walk_root w sink root] visits, depth first in increasing id order,
    every antichain whose minimum node id is [root]: a parent before its
    extensions, the same relative order [iter] has.  Counts this root's
    span-limit prunes as one [enumerate.pruned] sample.
    @raise Budget_exhausted before a visit the budget does not cover. *)
