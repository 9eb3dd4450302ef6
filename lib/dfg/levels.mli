(** ASAP / ALAP / Height level analysis (paper §3, equations 1–3).

    For a node [n]:
    - [ASAP(n)] is 0 at sources, otherwise [max over preds (ASAP+1)] — the
      earliest clock cycle the node may occupy;
    - [ALAP(n)] is [ASAPmax] at sinks, otherwise [min over succs (ALAP−1)] —
      the latest cycle compatible with an [ASAPmax+1]-cycle schedule;
    - [Height(n)] is 1 at sinks, otherwise [max over succs (Height+1)] — the
      paper's priority ingredient (note the unusual base of 1, which we keep
      so Table 1 reproduces verbatim). *)

type t

val compute : Dfg.t -> t

val asap : t -> int -> int
val alap : t -> int -> int
val height : t -> int -> int

val asap_max : t -> int
(** [max over nodes of ASAP]; [-1] for the empty graph. *)

val mobility : t -> int -> int
(** [alap − asap ≥ 0]: the node's scheduling slack. *)

val critical : t -> int -> bool
(** Zero-mobility nodes. *)

val lower_bound_cycles : t -> int
(** [asap_max + 1]: minimum schedule length with unlimited resources
    (0 for the empty graph). *)

val span : t -> int list -> int
(** [span lv nodes] is the paper's Span of a node set (§5.1):
    [max 0 (max ASAP − min ALAP)].  @raise Invalid_argument on []. *)

val span_bound : t -> int list -> int
(** Theorem 1's lower bound on total schedule length if the given set is
    forced into a single cycle: [asap_max + span + 1]. *)
