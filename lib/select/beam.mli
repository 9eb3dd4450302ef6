(** Beam-search pattern selection.

    {!Select} commits to the single best pattern at every step (beam width
    1); a brute-force oracle keeps everything (unbounded beam).  This
    module is the dial between them: at each of the [pdef] steps it keeps
    the [width] best partial selections, scoring each candidate extension
    by Eq. 8's priority, and finally ranks the surviving complete sets by
    their actual schedule length.  A step is Fig. 7's, built from {!Select}'s
    flat kernel (Eq. 8 against each state's own denominators, the Eq. 9
    condition without color sets, subpattern deletion on the state's pool
    mask, the fallback); only the width-[k] keep, the dedupe of permuted
    selections and the finalist costing are the beam's own.  Width 1
    reproduces {!Select} exactly: the same patterns in the same order.
    Modest widths recover most of the oracle's advantage at a tiny
    fraction of its cost.

    {b The width-[k] keep} is a stable pick of the [width] best Eq. 8
    scores among the admitted candidates, best first under [compare] on
    floats, equal scores in pool order: exactly the first [width] of a
    stable sort, without sorting the rest.

    {b The fixed point.}  A state with no pool candidate left and every
    color covered extends to itself.  When every state of the beam does,
    re-ranking reproduces the beam's order, so the search stops there
    instead of stepping on to [pdef]: any [pdef] at least the pool size
    plus the color count gives the same outcome, and a huge [pdef] costs
    no more than that.  The [beam.expansions] counter sums the states
    each step taken expands into, the step that finds the fixed point
    included, so it reads lower where the fixed point comes before
    [pdef]. *)

type outcome = {
  patterns : Mps_pattern.Pattern.t list;
  cycles : int;  (** [max_int] when no finalist can schedule the graph. *)
  evaluated_sets : int;  (** Complete sets scheduled at the final ranking. *)
}

val search :
  ?eval:Mps_scheduler.Eval.t ->
  ?width:int ->
  ?params:Select.params ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** [width] defaults to 4.

    [eval], when given, is the context the finalists are costed on, so a
    caller that keeps one warm context per graph (a serve session's
    family) gets repeat searches as memo hits and sees the costing in
    that context's {!Mps_scheduler.Eval.cache_stats}.  It must be a
    context for the classified graph itself ([Eval.graph eval ==
    Classify.graph classify]) and, like every context, used only from
    the calling domain.  Finalists are costed by pattern
    ({!Mps_scheduler.Eval.cycles}), so the context may have been made
    over any universe or none.  Without it the search makes its own.
    The outcome is the same either way.
    @raise Invalid_argument if [pdef < 1], [width < 1], or [eval] is a
    context for another graph. *)
