(** Simulated-annealing pattern-set search.

    Sits between the paper's one-pass heuristic ({!Select}) and the
    certified optimum ({!Exact}): a local search over Pdef-subsets of
    the candidate pool whose objective is the {e actual} schedule length
    under the multi-pattern scheduler.  The search starts from the
    heuristic's answer, so it can only match or improve it; each move swaps
    one pattern for a random pool pattern, keeping sets that fail to cover
    the graph's colors out of reach by construction.

    This is the natural "spend more compute for better patterns" knob the
    paper's future-work section gestures at, and the ablation uses it to
    measure how much headroom the one-pass heuristic leaves. *)

type outcome = {
  patterns : Mps_pattern.Pattern.t list;
  cycles : int;
  evaluations : int;  (** Schedules computed (the cost driver). *)
  improved : bool;  (** Strictly better than the heuristic start. *)
}

val search :
  ?iterations:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  Mps_util.Rng.t ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** [iterations] defaults to 2000, [initial_temperature] to 2.0 cycles,
    [cooling] to 0.995 per step.  Deterministic given the generator state.
    @raise Invalid_argument if [pdef < 1], [iterations < 0], [cooling]
    outside (0,1], or the temperature is not positive. *)
