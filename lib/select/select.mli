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
    built from.  {!Shared} runs the same loop with another score, so a
    new priority function is one [score] argument; {!Beam} branches on the
    same pieces. *)

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

    - scores every candidate that {!color_condition} admits with
      [score ~size] (the others score 0);
    - picks the first strictly best positive score, so ties go to the
      earlier pool entry, and hands its payload to [commit] — where the
      caller adds its coverage;
    - otherwise fabricates a {!fallback} pattern, or stops early when every
      color in [colors] is already covered;
    - deletes the chosen pattern's subpatterns from the pool.

    [score] is the only part a selector replaces: Eq. 8 ({!priority}) for
    {!select}.  The fallback interns into the universe.  Emits no
    counters. *)

val balance : params:params -> cover:int array -> freq:int array -> float
(** Eq. 8's first addend, Σ_n h(p̄,n) / (cover(n) + ε), summed in node
    order over the nodes with h > 0.  [cover] is Σ over the selected
    patterns of h(p̄i,·). *)

val priority :
  params:params -> cover:int array -> freq:int array -> size:int -> float
(** Eq. 8: [balance], then [+. α·size²]. *)

val add_cover : int array -> int array -> unit
(** [add_cover cover freq] adds a selected pattern's h(p̄,·) to [cover]. *)

val color_condition :
  Mps_pattern.Universe.t ->
  capacity:int ->
  colors:Mps_dfg.Color.Set.t ->
  covered:Mps_dfg.Color.Set.t ->
  remaining_picks:int ->
  Mps_pattern.Pattern.Id.t ->
  bool
(** Eq. 9 for one step: the candidate brings enough of the colors in
    [colors] not yet [covered] that the [remaining_picks] later patterns
    of [capacity] slots can cover the rest. *)

val fallback :
  Mps_pattern.Universe.t ->
  capacity:int ->
  colors:Mps_dfg.Color.Set.t ->
  covered:Mps_dfg.Color.Set.t ->
  Mps_pattern.Pattern.Id.t option
(** Fig. 7, line 3: the first [capacity] uncovered colors as one pattern,
    interned; [None] when every color is covered. *)

val delete_subpatterns :
  Mps_pattern.Universe.t ->
  of_:Mps_pattern.Pattern.Id.t ->
  (Mps_pattern.Pattern.Id.t * 'a) list ->
  (Mps_pattern.Pattern.Id.t * 'a) list
(** Fig. 7, line 4: the pool, in order, without the subpatterns of [of_]
    ([of_] itself included). *)
