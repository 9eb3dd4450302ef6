(** Beam-search pattern selection.

    {!Select} commits to the single best pattern at every step (beam width
    1); a brute-force oracle keeps everything (unbounded beam).  This
    module is the dial between them: at each of the [pdef] steps it keeps
    the [width] best partial selections, scoring each candidate extension
    by Eq. 8's priority, and finally ranks the surviving complete sets by
    their actual schedule length.  A step is Fig. 7's, built from {!Select}'s pieces
    (Eq. 8, the Eq. 9 condition, subpattern deletion, the fallback); only
    the width-[k] keep, the dedupe of permuted selections and the finalist
    costing are the beam's own.  Width 1 reproduces {!Select} exactly: the
    same patterns in the same order.  Modest widths recover most of the
    oracle's advantage at a tiny fraction of its cost. *)

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
