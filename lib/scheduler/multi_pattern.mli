(** Multi-pattern list scheduling (paper §4, Fig. 3).

    Given the allowed patterns p̄1…p̄Pdef, repeatedly: sort the candidate
    list by node priority, compute for each pattern the {e selected set}
    S(p̄,CL) it would schedule, score each pattern (F1 = |S|, Eq. 6, or
    F2 = Σ f(n) over S, Eq. 7), commit the best pattern's set to the current
    clock cycle, and refill the candidate list with newly-ready nodes.

    A node is a candidate once all its predecessors are scheduled in
    {e strictly earlier} cycles, so a value is never consumed in the cycle
    that produces it. *)

exception Unschedulable of Mps_dfg.Color.t list
(** Raised when candidates remain but no allowed pattern covers any of their
    colors (the offending colors are reported).  Cannot happen when the
    patterns jointly cover every color of the graph — which the §5
    selection algorithm guarantees by construction.  The same exception as
    {!Eval.Unschedulable} — this module is a full-fidelity wrapper over
    the {!Eval} context. *)

type pattern_priority = Eval.pattern_priority = F1 | F2

type trace_row = Eval.trace_row = {
  row_cycle : int;  (** 1-based, as in Table 2. *)
  row_candidates : int list;  (** CL sorted by decreasing node priority. *)
  row_selected : (Mps_pattern.Pattern.t * int list) list;
      (** S(p̄, CL) per allowed pattern, in the given pattern order. *)
  row_chosen : int;  (** Index into [row_selected] of the committed pattern. *)
}

type result = Eval.result = {
  schedule : Schedule.t;
  trace : trace_row list;  (** In cycle order; [] unless [trace] was set. *)
}

val schedule :
  ?priority:pattern_priority ->
  ?trace:bool ->
  ?universe:Mps_pattern.Universe.t ->
  patterns:Mps_pattern.Pattern.t list ->
  Mps_dfg.Dfg.t ->
  result
(** [priority] defaults to [F2] (the paper's refinement); [trace] defaults
    to [false].  Ties between patterns keep the earliest pattern in
    [patterns]; ties between equal-priority nodes keep the smaller node id.

    [universe], when given, hash-conses [patterns] through the arena: the
    patterns are interned and the schedule's per-cycle declared patterns
    all share the arena's canonical copies.  Purely a sharing/speed knob —
    the resulting schedule is identical with or without it.
    @raise Invalid_argument if [patterns] is empty.
    @raise Unschedulable as documented above. *)

val cycles :
  ?priority:pattern_priority ->
  patterns:Mps_pattern.Pattern.t list ->
  Mps_dfg.Dfg.t ->
  int
(** Schedule length only — a one-shot {!Eval.cycles}: the dense fast path,
    no schedule construction.  A search costing many pattern sets on the
    same graph should hold an {!Eval.t} and amortize the analyses. *)

val pp_trace :
  Mps_dfg.Dfg.t -> Format.formatter -> trace_row list -> unit
(** Renders rows in the shape of the paper's Table 2: cycle, candidate
    list, per-pattern selected sets, chosen pattern. *)
