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
  ?width:int ->
  ?params:Select.params ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** [width] defaults to 4.
    @raise Invalid_argument if [pdef < 1] or [width < 1]. *)
