(** The list-based Fig. 7 that the flat Eq. 8 kernel replaced, kept with
    the tests as the reference [Mps_select.Select] and [Mps_select.Beam]
    are checked against bit for bit.

    Eq. 8's balance folds h through [Array.iteri] into a float ref, Eq. 9
    builds a [Color.Set.diff] for every candidate at every step, the pool
    is a list filtered by subpattern deletion, and beam sorts every
    admitted candidate before keeping [width] of them and steps all the
    way to [pdef].  Emits no counters. *)

val balance :
  params:Mps_select.Select.params -> cover:int array -> freq:int array -> float

val run :
  Mps_pattern.Universe.t ->
  capacity:int ->
  colors:Mps_dfg.Color.Set.t ->
  pdef:int ->
  score:(size:int -> 'a -> float) ->
  commit:('a -> unit) ->
  (Mps_pattern.Pattern.Id.t * 'a) list ->
  Mps_select.Select.report

val select_report :
  ?params:Mps_select.Select.params ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  Mps_select.Select.report

val beam_search :
  ?eval:Mps_scheduler.Eval.t ->
  ?width:int ->
  ?params:Mps_select.Select.params ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  Mps_select.Beam.outcome
(** The parent's [Beam.search], without the [eval] graph check. *)

val shared_patterns :
  ?params:Mps_select.Select.params ->
  pdef:int ->
  Mps_select.Shared.kernel list ->
  Mps_pattern.Pattern.t list
(** The parent's [Shared.select] patterns: its pool and score over the
    list-based {!run} and {!balance}. *)
