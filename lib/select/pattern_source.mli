(** Schedule-derived pattern sets — a pragmatic alternative source of
    patterns for the ablation study.

    Instead of enumerating antichains, run a pattern-free scheduler (greedy
    capacity-only list scheduling, or force-directed scheduling) and harvest
    the per-cycle color bags it produced; the [pdef] most frequent bags,
    completed for color coverage, become the allowed patterns.  This is the
    "just look at one good schedule" strawman the paper's antichain
    machinery implicitly competes with. *)

type method_ = Greedy | Force_directed

val harvest :
  method_:method_ ->
  capacity:int ->
  pdef:int ->
  Mps_dfg.Dfg.t ->
  Mps_pattern.Pattern.t list
(** At most [pdef] patterns.  When the [pdef] most frequent bags miss a
    graph color, the last pattern is built from the uncovered colors (up
    to [capacity] of them) instead.
    @raise Invalid_argument if [pdef < 1] or [capacity < 1]. *)
