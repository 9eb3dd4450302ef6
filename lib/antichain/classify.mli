(** Classification of antichains by pattern, and node frequencies (§5.1–5.2).

    Enumerated antichains are grouped by their pattern (the bag of their
    nodes' colors).  For each pattern p̄ the classification keeps:

    - the number of its antichains;
    - the node-frequency vector h(p̄) where h(p̄,n) is the number of
      antichains of p̄ containing node n — "the flexibility to schedule the
      node n by the pattern p̄";
    - optionally the antichains themselves (Table 4 prints them; large
      graphs should not keep them).

    The classification is the input to the selection algorithm (§5.2).

    Patterns are interned into a {!Mps_pattern.Universe}: buckets are keyed
    by dense pattern id, and the universe's ids and memoized facts (size,
    color set) are shared with every later phase that consumes the
    classification.

    The classification is a sink of {!Enumerate.walk_root}: no antichain is
    built as a list or a pattern.  The pattern of each depth is an id,
    stepped from its prefix's id by the new node's color through a table
    filled on first use; a miss interns the pattern built from its sorted
    colors, so interned patterns are canonical values.  The last level
    arrives in bulk, as one set of admissible leaves per prefix: each leaf
    bumps its own pattern's count and h, and the prefix's nodes are
    credited once per color. *)

type t

val compute :
  ?pool:Mps_exec.Pool.t ->
  ?universe:Mps_pattern.Universe.t ->
  ?span_limit:int ->
  ?budget:int ->
  ?keep_antichains:bool ->
  capacity:int ->
  Enumerate.ctx ->
  t
(** Enumerates antichains of size 1..[capacity] with span ≤ [span_limit]
    (default unlimited) and classifies them.  [keep_antichains] defaults to
    [false].  [budget] caps the enumeration (see {!Enumerate.iter}); when it
    triggers, the classification covers only the visited prefix and
    {!truncated} reports it — selection on a truncated pool is still sound
    (the color-condition fallback guarantees coverage) but no longer sees
    every pattern.

    [universe] is the interning arena the classification registers its
    patterns in (a fresh one is created when omitted).  The caller that
    supplies it — typically the pipeline — owns its lifetime and may keep
    interning into it afterwards (selection does, for fabricated fallback
    patterns); ids handed out here stay valid.  Ids are assigned in
    first-visit enumeration order, identically for every [pool] size.

    [pool] fans the enumeration's root subtrees out across domains, one
    {!Enumerate.walk_root} per task; per-root tables intern into per-root
    scratch universes, and both tables and universes are merged in root
    (= submission) order, so the classification — counts, frequency
    vectors, kept-antichain order, total, and universe id assignment — is
    identical to the sequential one.  With a [budget], the parallel walk is
    optimistic: if the enumeration stays within budget the parallel result
    is returned (and is what the sequential walk would have produced); the
    moment the budget is exceeded the parallel walk aborts and the budgeted
    {e sequential} walk runs instead, so truncated classifications are
    byte-identical too, at the price of bounded duplicated work on
    over-budget graphs. *)

val truncated : t -> bool
(** Whether the enumeration budget cut the classification short. *)

val graph : t -> Mps_dfg.Dfg.t
val capacity : t -> int
val span_limit : t -> int option

val universe : t -> Mps_pattern.Universe.t
(** The interning arena the classification's patterns live in.  Consumers
    read ids' patterns, sizes and color sets from it. *)

val ids : t -> Mps_pattern.Pattern.Id.t list
(** Ids of all patterns that have at least one antichain, in the canonical
    sorted-by-pattern order (the order {!patterns} and {!fold} use). *)

val patterns : t -> Mps_pattern.Pattern.t list
(** All patterns that have at least one antichain, sorted. *)

val pattern_count : t -> int

val count : t -> Mps_pattern.Pattern.t -> int
(** Number of antichains of the pattern (0 if the pattern never occurs). *)

val count_id : t -> Mps_pattern.Pattern.Id.t -> int
(** Same, keyed by universe id. *)

val node_frequency : t -> Mps_pattern.Pattern.t -> int array
(** The vector h(p̄), indexed by node id; an all-zero vector if the pattern
    never occurs.  Fresh copy: safe to mutate. *)

val frequency : t -> Mps_pattern.Pattern.t -> int -> int
(** h(p̄, n). *)

val antichains : t -> Mps_pattern.Pattern.t -> Antichain.t list
(** The pattern's antichains in enumeration order; [] unless
    [keep_antichains] was set. *)

val total_antichains : t -> int

val fold :
  (Mps_pattern.Pattern.t -> count:int -> freq:int array -> 'a -> 'a) ->
  t ->
  'a ->
  'a
(** Folds over patterns in sorted order.  [freq] is the internal vector:
    read-only. *)

val fold_ids :
  (Mps_pattern.Pattern.Id.t -> count:int -> freq:int array -> 'a -> 'a) ->
  t ->
  'a ->
  'a
(** Same fold, handing out universe ids instead of patterns — the selection
    phases build their candidate pools from this. *)

val pp_table : Format.formatter -> t -> unit
(** "pattern: antichain count" lines, the §5.1 classification shape. *)
