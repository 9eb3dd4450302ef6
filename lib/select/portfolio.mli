(** Portfolio selection: run every pattern-set strategy, keep the winner.

    The library ships selectors with different cost/quality points; when
    one kernel's mapping matters more than selection time, the right move
    is simply to try them all and schedule-test each result.  The
    portfolio does that deterministically and reports which strategy won
    — data the ablation aggregates into a win table.

    Strategies included: the paper's Eq. 8 heuristic ([eq8]), the greedy
    schedule harvest ([harvest:greedy], {!Pattern_source}), beam search
    ([beam]), and (optionally, it needs a generator) simulated annealing.
    A new selector joins the registry only by reaching a lower cycle
    count than all three somewhere; on the measured corpus none of the
    removed ones did (DESIGN.md §16). *)

type entry = {
  strategy : string;
  patterns : Mps_pattern.Pattern.t list;
  cycles : int;  (** [max_int] when the strategy produced an unschedulable set. *)
}

type outcome = {
  best : entry;
  all : entry list;  (** Every strategy's result, best first. *)
}

val strategies :
  ?eval:Mps_scheduler.Eval.t ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  (string * (unit -> Mps_pattern.Pattern.t list * int option)) list
(** The portfolio's default strategy registry: name plus a thunk producing
    the pattern set and, for searches that already cost their own result
    (beam), the known cycle count.  List order is the portfolio tie-break
    order (cheaper strategies first).  Annealing is not in the registry —
    it needs a caller-owned generator and stays an option of {!run}.

    [eval] is handed to the searches that cost their own result ({!Beam}
    costs its finalists on it), under {!Beam.search}'s contract: a
    context for the classified graph itself, and thunks that receive it
    run on the calling domain only.  {!run} passes none, because its pool
    may run the thunks on other domains.

    This is also the backend space of the auto-selector ({!Auto}): auto
    dispatches exactly one named thunk from here, so its answer is always
    some portfolio member's exact result. *)

val strategy_names : string list
(** The registry's names in registry order, without running anything —
    what {!Auto} validates and fits rule tables against.  Built from the
    same list as {!strategies}, so the two always agree. *)

val run :
  ?pool:Mps_exec.Pool.t ->
  ?annealing:Mps_util.Rng.t * int ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** [annealing] is (generator, iterations) and is skipped when absent.
    Ties go to the earlier (cheaper) strategy.

    [pool] evaluates the strategies on the pool's domains, one task per
    strategy.  Every strategy is deterministic given its inputs (the
    annealing task owns its generator), and ranking ties break on
    submission order, so the outcome — winner, ranking, cycles — is
    identical to the sequential run for any worker count.
    @raise Invalid_argument if [pdef < 1]. *)
