(** Per-graph strategy auto-selection over a transparent decision-rule
    table (ROADMAP item 4, after the OpenMP scheduling-algorithm-selection
    comparative study in PAPERS.md).

    The portfolio ({!Portfolio}) pays for every backend on every graph;
    auto reads a cheap feature vector ({!Features}) and dispatches exactly
    {e one} named thunk from {!Portfolio.strategies} — so its answer is
    always some portfolio member's exact pattern set, never a novel one,
    at roughly the cost of the one backend it picked.

    The decision logic is an ordered rule table: the first rule whose
    conditions all hold names the backend, and the table must end with an
    unconditional default so every graph matches something.  Each rule
    carries provenance — which corpus workloads it was fit on — so a
    surprising decision can be traced to its evidence.  The table is fit
    offline by {!fit} (driven by [bench --fit-selector] over the bench
    corpus) and compiled in as {!builtin_rules}, the one table auto
    dispatches on. *)

(** {1 Rule tables} *)

type op =
  | Le  (** feature <= threshold *)
  | Gt  (** feature > threshold *)

type cond = { feature : string; op : op; threshold : float }
(** [feature] must be one of {!Features.names}. *)

type rule = {
  conds : cond list;  (** All must hold; [[]] is the unconditional default. *)
  backend : string;  (** A {!Portfolio.strategy_names} member. *)
  provenance : string;
      (** Free text: the corpus workloads this rule covered when fit, or
          ["hand-written"] for manual edits. *)
}

type rules = rule list
(** Ordered: first match wins.  A valid table is non-empty, names only
    known features and backends, and ends with an unconditional rule. *)

val builtin_rules : rules
(** The table fit on the bench corpus by [bench --fit-selector] and
    pasted in, so auto needs no file at startup and behaves identically
    from any working directory.  [bench --fit-selector] exits 1 unless
    its refit reproduces this table exactly. *)

val validate : rules -> (rules, string) result
(** The invariants above; [Error] names the offending rule. *)

(** {1 Selection} *)

type outcome = {
  backend : string;  (** The dispatched strategy. *)
  rule_index : int;  (** 0-based index of the matching rule. *)
  rule : rule;
  features : Features.t;
  patterns : Mps_pattern.Pattern.t list;
  cycles : int;
      (** The set's schedule length under the default priority — the same
          costing the portfolio ranks by — or [max_int] if unschedulable
          or empty. *)
}

val select :
  ?rules:rules ->
  ?features:Features.t ->
  ?eval:Mps_scheduler.Eval.t ->
  pdef:int ->
  Mps_antichain.Classify.t ->
  outcome
(** Extracts features (reusing [eval]'s analyses when given, or a
    caller-cached vector via [features] — the serve session passes its
    fingerprint-keyed copy), walks [rules] (default {!builtin_rules}) to
    the first match, runs that one backend, and costs the result on
    [eval] (or a fresh context).  A backend that costs its own result
    (beam) costs it on [eval] too, so [eval] must be a context for the
    classified graph itself ({!Beam.search}'s contract).  Runs inline on
    the calling domain and
    emits [select.auto.requests] (count), [select.auto.rule] /
    [select.auto.cycles] (distributions) and [select.auto.backend.<name>]
    (count) in submission order, so [--stats] stays byte-identical at any
    [--jobs].

    @raise Invalid_argument if [pdef < 1] or [rules] fails {!validate}
    ({!builtin_rules} never does). *)

(** {1 Strategy choice for the pipeline} *)

type strategy =
  | Paper  (** The faithful Eq. 8/9 heuristic — the default everywhere. *)
  | Auto of rules  (** Rule-table dispatch as above. *)

val strategy_of_string : string -> (strategy, string) result
(** ["eq8"]/["paper"] or ["auto"] (with {!builtin_rules}) — the CLI/serve
    option spelling. *)

(** {1 Offline fitting} *)

type example = {
  name : string;  (** Workload name, quoted in rule provenance. *)
  example_features : Features.t;
  costs : (string * int) list;
      (** Backend name to schedule cycles ([max_int] = unschedulable),
          every backend present. *)
}

val fit : ?tolerance:float -> example list -> rules
(** Greedy separate-and-conquer decision-list fitting (PRISM-style).  A
    backend is {e acceptable} for an example when its cycles are within
    [tolerance] (default 0.05) of that example's best backend.  Rounds
    pick the single-condition rule (feature, [Le]/[Gt], midpoint
    threshold between adjacent observed values) that is {e pure} — every
    remaining example it covers accepts its backend — and covers the most
    remaining examples; ties break toward the cheaper backend
    ({!Portfolio.strategy_names} order), then {!Features.names} order,
    [Le] before [Gt], smaller threshold.  Covered examples are removed
    and the search repeats; when no pure rule exists (or nothing
    remains), an unconditional default closes the table with the backend
    acceptable to most remaining (or all) examples.  Thresholds are
    rounded to 12 significant digits, the precision [bench --fit-selector]
    prints, so a printed table pasted back in is exactly the fitted one.
    Deterministic: no randomness, all ties ordered.
    @raise Invalid_argument on an empty example list. *)
