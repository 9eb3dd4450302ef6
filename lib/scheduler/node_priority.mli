(** Node priority function (paper §4.1, equations 4–5).

    f(n) = s·Height(n) + t·#direct_successors(n) + #all_successors(n)

    with s and t large enough (Eq. 5) that the three criteria nest
    lexicographically: largest height first; among equal heights, most
    direct successors; among those, most total successors.  We pick the
    smallest strict witnesses

    t = max #all_successors + 1,
    s = max (t·#direct + #all) + 1,

    which satisfy Eq. 5 and in addition make the comparison exactly the
    lexicographic one (the paper's ≥ allows ties across different height
    triples in degenerate graphs; strictness costs nothing). *)

type t

val compute : Mps_dfg.Dfg.t -> Mps_dfg.Reachability.t -> Mps_dfg.Levels.t -> t

val s_param : t -> int
val t_param : t -> int

val value : t -> int -> int
(** f(n). *)

val key : t -> int -> int * int * int
(** (height, #direct successors, #all successors) — the lexicographic
    reading of f(n). *)

val rank : t -> int -> int
(** The node's position (0-based) in the global descending priority order
    (f(n) desc, node id asc).  Ranks are distinct, so ties are broken by
    increasing node id and every consumer is deterministic. *)

val sort : t -> int list -> int list
(** Sorts a candidate list, highest priority first. *)

val sum_values : t -> int list -> int
(** Sum of f(n) over a candidate list — the F2 pattern-priority score. *)
