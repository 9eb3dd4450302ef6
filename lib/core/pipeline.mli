(** The end-to-end mapping flow: the four phases of the Montium compiler
    (paper §1) wired together — (optional) clustering, pattern generation +
    selection, multi-pattern scheduling, and (for programs) allocation onto
    the tile.

    This is the one-call entry point a user of the library wants:
    "here is my kernel, give me patterns, a schedule, and the mapping
    evidence". *)

type options = {
  capacity : int;  (** C; defaults to the tile's 5 ALUs. *)
  pdef : int;  (** Number of patterns to select. *)
  span_limit : int option;
      (** Antichain span limit for pattern generation; [Some 1] reproduces
          the paper's Table 7 operating point. *)
  enumeration_budget : int option;
      (** Cap on the antichain enumeration (it is exponential in graph
          width); when hit, {!t.truncated} is set and selection works on
          the visited prefix. *)
  selection : Mps_select.Select.params;
  strategy : Mps_select.Auto.strategy;
      (** Which selector runs: [Paper] (the default) is the faithful
          Eq. 8/9 heuristic; [Auto rules] dispatches one portfolio backend
          per graph from its feature vector ({!Mps_select.Auto}). *)
  priority : Mps_scheduler.Multi_pattern.pattern_priority;
  cluster : bool;  (** Fuse multiply-accumulate pairs first. *)
  tile : Mps_montium.Tile.t;
}

val default_options : options
(** capacity 5, pdef 4, span limit 1, a 5-million-antichain enumeration
    budget, paper selection params, [Paper] strategy, F2 priority, no
    clustering, default tile. *)

type t = {
  options : options;
  graph : Mps_dfg.Dfg.t;  (** The scheduled graph (clustered if enabled). *)
  clustering : Mps_clustering.Cluster.t option;
  pattern_pool : int;  (** Distinct patterns found in the graph. *)
  antichains : int;  (** Antichains enumerated under the span limit. *)
  truncated : bool;  (** The enumeration budget cut pattern generation short. *)
  patterns : Mps_pattern.Pattern.t list;  (** The selected patterns. *)
  auto : Mps_select.Auto.outcome option;
      (** The auto-selector's decision (matched rule, features, backend)
          when [strategy] is [Auto]; [None] under [Paper]. *)
  schedule : Mps_scheduler.Schedule.t;
  cycles : int;
  config : Mps_montium.Config_space.t;
}

val run : ?pool:Mps_exec.Pool.t -> ?options:options -> Mps_dfg.Dfg.t -> t
(** Full flow on a bare DFG.  [pool] runs the antichain
    enumeration/classification phase on its domains (callers running many
    pipelines reuse one pool instead of respawning domains per graph); the
    result is identical with or without it, for any pool size (see
    {!Mps_antichain.Classify.compute}).
    @raise Invalid_argument on nonsensical options (pdef or
    capacity < 1). *)

val selection :
  ?options:options ->
  ?features:Mps_select.Features.t ->
  eval:Mps_scheduler.Eval.t ->
  Mps_antichain.Classify.t ->
  Mps_select.Select.report * Mps_select.Auto.outcome option
(** The flow's selection step, the one both {!run} and a serve session's
    selection memo run: the Eq. 8/9 report and [None] under [Paper]; under
    [Auto rules], the dispatched backend's patterns with an empty step
    list and the auto-selector's outcome.  [eval] must be a context for
    the classified graph sharing its universe: auto costs the backend's
    set on it and reads its analyses for the feature vector unless
    [features] (the serve session's per-graph copy) is given.  Reads only
    [strategy], [selection] and [pdef] of [options].
    @raise Invalid_argument as {!Mps_select.Select.select_report} and
    {!Mps_select.Auto.select} do on [pdef < 1]. *)

val run_classified :
  ?options:options ->
  ?clustering:Mps_clustering.Cluster.t ->
  ?eval:Mps_scheduler.Eval.t ->
  ?selection:(Mps_select.Select.report * Mps_select.Auto.outcome option) Lazy.t ->
  Mps_antichain.Classify.t ->
  t
(** The flow from an already-computed classification on: selection,
    scheduling, configuration report.  This is {!run} minus pattern
    generation — what a warm serve session runs when the graph's
    classification is already cached — and produces exactly the [t] that
    {!run} with matching options would (the classification's capacity and
    span must be the ones [options] names).  [clustering] is threaded into
    {!t.clustering} verbatim for callers that clustered upstream; [eval]
    reuses a warm evaluation context for the classified graph (it must
    share the classification's universe) instead of building one — the
    schedule is identical either way.  [selection], when given, is
    {!selection}'s result for [options] on this classification (a serve
    session keeps it per Pdef), used instead of selecting again; it is
    forced after the options are validated, so a bad [pdef] is refused as
    without it. *)

type certification = {
  heuristic : Mps_pattern.Pattern.t list;
      (** The Eq. 8/9 selection on the same classification. *)
  heuristic_cycles : int;
      (** Its canonical-order cycles ({!Mps_select.Exact.canonical_order}). *)
  exact : Mps_select.Exact.certificate;
      (** The branch-and-bound certificate, seeded with the heuristic. *)
  gap_percent : float;
      (** [(heuristic − exact) / exact × 100]; never negative because the
          heuristic seeds the incumbent.  0 when the exact search found
          nothing schedulable. *)
}

val certify :
  ?pool:Mps_exec.Pool.t ->
  ?options:options ->
  ?max_nodes:int ->
  Mps_dfg.Dfg.t ->
  certification
(** Runs the heuristic selection, then the exact branch-and-bound seeded
    with it, on one shared classification — the evidence behind
    [mpsched select --certify].  When [exact.proven] is set the gap is a
    true optimality gap over the exact search family; otherwise it is only
    an upper bound ([max_nodes] cut some subtree short).  [pool] runs the
    classification; the exact search itself is sequential.  Deterministic
    with or without [pool], for any pool size, like {!run}. *)

val certify_classified :
  ?options:options ->
  ?max_nodes:int ->
  ?bans:Mps_select.Exact.ban_entry list ->
  ?heuristic:Mps_pattern.Pattern.t list Lazy.t ->
  Mps_antichain.Classify.t ->
  certification
(** {!certify} from an already-computed classification, optionally warm:
    [bans] is a previous certificate's ban list over the same family
    ({!Mps_select.Exact.search}'s contract), so repeat certifications in a
    serve session skip every already-costed set.  The certification's
    optimal set and cycles are identical to a cold {!certify}; only the
    search accounting (ban hits, evaluations) reflects the reuse.
    [heuristic], when given, is the Eq. 8/9 selection for [options] on
    this classification, forced after the options are validated, used
    instead of selecting again. *)

type mapped = {
  program : Mps_frontend.Program.t;
      (** What was actually mapped: the input program, MAC-fused first when
          [cluster] was set. *)
  pipeline : t;
  allocation : Mps_montium.Allocation.t;
  energy : Mps_montium.Energy.breakdown;
}

val map_program :
  ?pool:Mps_exec.Pool.t ->
  ?options:options ->
  Mps_frontend.Program.t ->
  (mapped, string) result
(** [run] plus allocation and the energy estimate.  With [cluster] set the
    program is first rewritten by {!Mps_clustering.Program_fuse} (multiply→
    add pairs become MAC instructions), so the clustered path stays fully
    executable.  [Error] reports an allocation failure. *)

val verify : mapped -> env:(string -> float) -> (unit, string) result
(** Simulates the mapped program on the tile and compares against the
    reference evaluator (fusion preserves the float semantics exactly, so
    this also validates a fused mapping against the original intent). *)

val pp_summary : Format.formatter -> t -> unit
