(** The pattern selection algorithm — the paper's contribution (§5.2, Fig. 7).

    Patterns are chosen one at a time.  The priority of a candidate pattern
    p̄j given the already-selected set Ps is (Eq. 8)

    f(p̄j) = Σ_n  h(p̄j,n) / (Σ_{p̄i∈Ps} h(p̄i,n) + ε)  +  α·|p̄j|²

    when p̄j satisfies the color-number condition (Eq. 9)

    |Ln(p̄j)| ≥ |L| − |Ls| − C·(Pdef − |Ps| − 1)

    and 0 otherwise.  The first addend prefers patterns with many antichains
    while damping nodes the earlier selections already cover; the α term
    prefers larger patterns; the color condition keeps enough room in the
    remaining picks that every color of the graph ends up covered.  When no
    candidate has nonzero priority, a pattern is fabricated from uncovered
    colors (Fig. 7, line 3).  After each selection the chosen pattern's
    subpatterns are deleted from the candidate pool (line 4).

    This module owns Fig. 7 once: {!run} is the loop, and Eq. 8, Eq. 9,
    subpattern deletion and the fallback are exposed as the pieces it is
    built from (the flat kernel below).  {!Shared} runs the same loop with
    another score, so a new priority function is one [score] argument;
    {!Beam} branches on the same pieces. *)

type params = { epsilon : float; alpha : float }

val default_params : params
(** The paper's operating point: ε = 0.5, α = 20. *)

type step = {
  chosen : Mps_pattern.Pattern.t;
  priority : float;  (** f at selection time; meaningless for fallbacks. *)
  fallback : bool;  (** Fabricated from uncovered colors. *)
  deleted : Mps_pattern.Pattern.t list;
      (** Candidate subpatterns removed by this selection (the pattern
          itself included when it was a candidate). *)
  priorities : (Mps_pattern.Pattern.t * float) list;
      (** The full scored candidate list at this step, selection order —
          the numbers the paper walks through in §5.2. *)
}

type report = {
  patterns : Mps_pattern.Pattern.t list;  (** In selection order. *)
  steps : step list;
}

val select :
  ?params:params -> pdef:int -> Mps_antichain.Classify.t -> Mps_pattern.Pattern.t list
(** Selects up to [pdef] patterns.  Fewer are returned only when the
    candidate pool empties and every color is already covered — then extra
    patterns could not change any schedule.
    @raise Invalid_argument if [pdef < 1]. *)

val select_report :
  ?params:params -> pdef:int -> Mps_antichain.Classify.t -> report
(** Same, keeping the per-step evidence. *)

val covers_all_colors : Mps_dfg.Dfg.t -> Mps_pattern.Pattern.t list -> bool
(** Requirement 1 of §5: the selected patterns jointly cover every color in
    the graph — guaranteed for [select]'s result, and the property that
    makes multi-pattern scheduling total. *)

(** {1 Fig. 7, piece by piece} *)

val run :
  Mps_pattern.Universe.t ->
  capacity:int ->
  colors:Mps_dfg.Color.Set.t ->
  pdef:int ->
  score:(size:int -> 'a -> float) ->
  commit:('a -> unit) ->
  (Mps_pattern.Pattern.Id.t * 'a) list ->
  report
(** Fig. 7's loop over a candidate pool of universe ids, each carrying the
    caller's payload.  Each of up to [pdef] steps

    - scores every candidate that Eq. 9 ({!admits}) lets in with
      [score ~size] into a float array over the flat {!pool} (the others
      score 0);
    - picks the first strictly best positive score, so ties go to the
      earlier pool entry, and hands its payload to [commit] — where the
      caller adds its coverage;
    - otherwise fabricates a {!fallback} pattern, or stops early when every
      color in [colors] is already covered;
    - records the step's [priorities] and [deleted] in pool order and
      clears the chosen pattern's subpatterns from the pool's alive mask.

    [score] is the only part a selector replaces: Eq. 8 ({!eq8}) for
    {!select}.  The fallback interns into the universe.  Emits no
    counters. *)

val fallback :
  Mps_pattern.Universe.t ->
  capacity:int ->
  colors:Mps_dfg.Color.Set.t ->
  covered:Mps_dfg.Color.Set.t ->
  Mps_pattern.Pattern.Id.t option
(** Fig. 7, line 3: the first [capacity] uncovered colors as one pattern,
    interned; [None] when every color is covered. *)

(** {1 The flat kernel}

    Fig. 7's pieces in the form {!run}, {!select_report} and {!Beam}
    score with.  The contract, which keeps every priority bit equal to
    the list-based formulation they replaced:

    - {b Node order.}  Eq. 8's first addend ({!balance}) sums
      h(p̄,n) / den(n) over the nodes with h > 0, in increasing node id;
      {!eq8} then adds α·|p̄|².
    - {b [den].}  A {!coverage} keeps den(n) = [float_of_int cover(n) +.
      ε] in a float array, recomputed for a node only when a commit
      changes its cover.  It is the double the sum would compute inline,
      so the inner loop is one load, one divide and one add per node.
    - {b Eq. 9 without sets.}  A {!pool} spells each candidate's distinct
      colors once; an {!admission} is one step's covered-flag table,
      indexed by color character, so any number of colors works.  A
      candidate's uncovered-color count is a walk over its spelling; no
      [Color.Set] is built per candidate per step.
    - {b Deletion.}  The surviving pool is a mask over the flat pool, in
      pool order; {!delete} clears the subpatterns of a choice. *)

type coverage
(** Σ over the selected patterns of h(p̄i,·), with Eq. 8's denominators
    and the parameters they were made with. *)

val coverage : params:params -> int -> coverage
(** Nothing covered yet, over [n] nodes. *)

val copy_coverage : coverage -> coverage

val commit : coverage -> int array -> unit
(** [commit c freq] adds a selected pattern's h(p̄,·) and refreshes the
    denominators of the nodes it touches. *)

val balance : coverage -> freq:int array -> float
(** Eq. 8's first addend for a candidate with h(p̄,·) = [freq]:
    Σ_n h(p̄,n) / den(n) over the nodes with h > 0, in node order.  A
    [for] loop with an unboxed accumulator; it allocates nothing but its
    result.  {!Shared} sums it over the kernels that realize a
    candidate, each against its own coverage. *)

val eq8 : coverage -> freq:int array -> size:int -> float
(** Eq. 8 for a candidate with h(p̄,·) = [freq] and |p̄| = [size]:
    [balance c ~freq +. α·size²]. *)

type hues
(** Eq. 9's view of a pool: each candidate's distinct colors and the
    colors the selection must cover. *)

type 'a pool = private {
  universe : Mps_pattern.Universe.t;
  ids : Mps_pattern.Pattern.Id.t array;  (** Pool order. *)
  payloads : 'a array;
  sizes : int array;  (** |p̄| per candidate. *)
  hues : hues;
}
(** A candidate pool flattened once per selection. *)

val pool :
  Mps_pattern.Universe.t ->
  colors:Mps_dfg.Color.Set.t ->
  (Mps_pattern.Pattern.Id.t * 'a) list ->
  'a pool
(** [colors] is the set every selection over this pool must cover. *)

val alive : 'a pool -> Bytes.t
(** A fresh mask with every candidate alive (non-zero bytes). *)

type admission
(** Eq. 9 at one step: the covered colors and the fewest uncovered colors
    an admitted candidate brings. *)

val admission :
  'a pool ->
  capacity:int ->
  covered:Mps_dfg.Color.Set.t ->
  remaining_picks:int ->
  admission
(** The condition for a step with [covered] already covered and
    [remaining_picks] later patterns of [capacity] slots. *)

val admits : 'a pool -> admission -> int -> bool
(** Eq. 9 for candidate [k] (a pool index): it brings enough of the colors
    not yet covered that the remaining picks can cover the rest. *)

val delete : 'a pool -> alive:Bytes.t -> of_:Mps_pattern.Pattern.Id.t -> unit
(** Fig. 7, line 4: clears from [alive] the subpatterns of [of_] ([of_]
    itself included), one [Pattern.subpattern] test per alive candidate.
    [of_] may have been interned after the pool was made, as a
    {!fallback} is. *)
