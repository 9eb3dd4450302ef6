(** The list-based classification the allocation-free walker replaced,
    kept with the tests as the reference [Mps_antichain.Classify.compute]
    is checked against.

    Every antichain [Enumerate.iter] visits is classified on its own: its
    pattern is built ([Antichain.pattern]), interned into a fresh universe
    ([Universe.intern]) and its count and each of its nodes' h(p̄,n) are
    bumped.  No id stepping, no bulk last level, no pool.  Slow; only for
    small graphs or small budgets. *)

type t = {
  total : int;
  truncated : bool;
  rows : (string * int * int list * int list list) list;
      (** One row per universe id, in id order: the spelling, the
          antichain count, h(p̄) by node id, and the kept antichains in
          visit order ([[]] unless kept). *)
}

val compute :
  ?span_limit:int ->
  ?budget:int ->
  keep_antichains:bool ->
  capacity:int ->
  Mps_antichain.Enumerate.ctx ->
  t

val of_classify : Mps_antichain.Classify.t -> t
(** The same snapshot of a classification, from its universe in id order,
    so ids a classification interned without counting show up as rows with
    count 0. *)
