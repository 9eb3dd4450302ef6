(** Cheap per-graph features for strategy auto-selection.

    The selector ({!Auto}) decides which selection backend to run on a
    graph from structural features alone — nothing here enumerates
    antichains or schedules anything.  Everything is derived in one pass
    over the analyses the pipeline computes anyway ({!Mps_dfg.Levels},
    {!Mps_dfg.Reachability}), so extraction costs a small fraction of even
    the cheapest backend and the vector can be cached per graph (the serve
    session keys it by content fingerprint).

    Features are exposed two ways: as a typed record for code, and as a
    named [(string * float)] vector ({!to_assoc}) that the rule table's
    conditions are written against — rules name features by these
    strings, and {!get}/{!names} are the single source of truth for what
    exists. *)

type t = {
  nodes : int;  (** Node count. *)
  edges : int;  (** Edge count. *)
  colors : int;  (** Distinct colors (|L|, §5.2). *)
  max_color_share : float;
      (** Largest color population divided by the node count — 1.0 for a
          monochrome graph, 1/|L| for a perfectly balanced mix. *)
  depth : int;  (** Critical path length in cycles (ASAPmax + 1). *)
  max_width : int;  (** Widest ASAP level. *)
  mean_width : float;  (** Nodes per ASAP level on average. *)
  width_histogram : (int * int) list;
      (** [(width, number of ASAP levels of that width)], ascending width —
          the level-width histogram the scalar summaries are drawn from. *)
  parallelism : float;
      (** Fraction of unordered node pairs that are parallelizable under
          the transitive closure (§3): 0 for a chain, 1 for an antichain
          graph.  0 when the graph has fewer than two nodes. *)
  antichain_log2 : float;
      (** log2 of a cheap lower estimate of the antichain count: every
          non-empty subset of an ASAP level is an antichain (equal ASAP
          means incomparable), so Σ over levels of 2^width − 1 counts the
          span-0 antichains without enumerating anything. *)
}

val extract : Mps_dfg.Dfg.t -> t
(** Computes {!Mps_dfg.Levels} and {!Mps_dfg.Reachability} and derives the
    vector.  Deterministic: the same graph always yields the same vector. *)

val extract_with :
  levels:Mps_dfg.Levels.t ->
  reachability:Mps_dfg.Reachability.t ->
  Mps_dfg.Dfg.t ->
  t
(** {!extract} reusing analyses the caller already owns (an
    {!Mps_scheduler.Eval} context computed both) — same result. *)

val names : string list
(** The scalar feature names rule conditions may reference, in {!to_assoc}
    order: [nodes], [edges], [colors], [max_color_share], [depth],
    [max_width], [mean_width], [parallelism], [antichain_log2]. *)

val get : t -> string -> float option
(** The named scalar, [None] for an unknown name. *)

val to_assoc : t -> (string * float) list
(** The full named vector, in {!names} order. *)

val to_json : t -> Mps_util.Json.t
(** The vector as a JSON object (scalars by name plus the width histogram
    as an array of [[width, count]] pairs) — what serve's auto responses
    carry. *)

val pp : Format.formatter -> t -> unit
(** One-line [name=value] rendering, {!names} order. *)
