(** Exhaustive pattern-set oracle for small instances, kept with the
    tests as the independent check on [Mps_select.Exact].

    Enumerates every way of choosing [pdef] patterns from the candidate
    pool (plus, when needed, fabricated coverage patterns), schedules the
    graph under each set, and returns a set minimizing the cycle count.
    Exponential in [pdef] over the pool size — use it to measure how close
    the heuristic selection lands to optimal on graphs like the paper's
    examples, never on large graphs.  [max_sets] caps the number of
    evaluated combinations as a safety net. *)

type outcome = {
  best : Mps_pattern.Pattern.t list;
  best_cycles : int;
  evaluated : int;
  truncated : bool;  (** [max_sets] hit: the optimum may lie beyond. *)
}

val search :
  ?priority:Mps_scheduler.Multi_pattern.pattern_priority ->
  ?max_sets:int ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** [max_sets] defaults to 200_000.  Candidate sets that do not jointly
    cover the graph's colors are completed with one fabricated pattern of
    uncovered colors when a slot is free, else skipped.
    @raise Invalid_argument if [pdef < 1]. *)
