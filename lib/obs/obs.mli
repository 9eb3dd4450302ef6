(** Structured observability: phase spans, counters and histograms over the
    whole mapping flow, zero-cost when disabled.

    Every pipeline phase — antichain enumeration, classification, pattern
    selection, multi-pattern scheduling, allocation — is instrumented with
    calls into this module ({!span}, {!count}, {!observe}).  The calls are
    {e ambient}: they record into whatever collector is installed on the
    calling domain ({!run}), and when none is installed they reduce to one
    domain-local read and a branch, so the un-instrumented behaviour and
    output of the flow are untouched (the [check.sh] gate diffs a traced
    run against a plain run to enforce byte-identity of the primary
    output).

    {2 Determinism under [--jobs]}

    Tasks running on an {!Mps_exec.Pool} record into per-task buffers
    ({!Task}) that the pool merges into the submitting domain's collector
    in {e submission order}, the same order its results are merged in.
    Counter totals are therefore identical for every [--jobs] value, and
    the span tree is deterministic for a fixed jobs count (wall-clock
    numbers of course vary run to run; the tree {e shape} gains pool
    batches only when [jobs > 1]).  If any task of a batch fails, the whole
    batch's buffers are discarded, so an optimistic parallel attempt that
    aborts (e.g. classification over budget, see
    {!Mps_antichain.Classify.compute}) leaves no events behind and the
    sequential re-run reports exactly the [--jobs 1] story.

    {2 Span and counter names}

    Names are dotted, prefixed by their subsystem ([classify.antichains],
    [schedule.ready], [enumerate.pruned], …).  The full registry — every
    span and counter the pipeline emits, what it means and where it is
    measured — lives in [docs/architecture.md]; the per-phase summary table
    and the CSV export both key on these names. *)

type t
(** A collector: an event buffer plus a counter table, owned by the domain
    that {!run}s it.  Not thread-safe — parallel phases record through
    {!Task} buffers instead of sharing a collector. *)

val create : unit -> t
(** A fresh, empty, not-yet-installed collector. *)

val run : t -> (unit -> 'a) -> 'a
(** [run c f] installs [c] as the calling domain's ambient collector for
    the duration of [f] (restoring the previous one, if any, on the way
    out) and returns [f ()].  Everything [f] does — directly or through a
    pool — records into [c]. *)

val active : unit -> bool
(** Whether the calling domain currently has an ambient collector.
    Instrumentation sites may use this to skip building expensive
    arguments; {!span}/{!count}/{!observe} already no-op when inactive. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a named monotonic-clock span
    ({!Mps_util.Clock}).  Spans nest; the close is recorded even when [f]
    raises, so a collector's event stream is always well-formed.  No-op
    when no collector is installed. *)

val count : string -> int -> unit
(** [count name v] adds [v] to the named counter (creating it at zero).
    No-op when no collector is installed. *)

val observe : string -> int -> unit
(** [observe name v] records [v] as one sample of the named distribution
    (ready-list sizes, nodes placed per cycle, …): sample count, sum, min
    and max are kept.  No-op when no collector is installed. *)

(** Per-task buffering for {!Mps_exec.Pool}.  The pool is the only
    intended caller: it opens one buffer per task, installs it on whatever
    domain executes the task, and commits all buffers in submission order
    after the batch — see the determinism note above. *)
module Task : sig
  type buffer

  val begin_batch : n:int -> buffer array option
  (** [n] fresh buffers when the calling domain has an ambient collector;
      [None] (record nothing) otherwise. *)

  val run_in : buffer -> (unit -> 'a) -> 'a
  (** Installs the buffer as the {e executing} domain's ambient collector
      for the duration of the call (restoring the previous sink after). *)

  val commit : buffer array -> unit
  (** Appends every buffer's events and merges every buffer's counters
      into the calling domain's ambient collector, in array (= submission)
      order.  Call only on success; dropping the array instead discards
      the batch's telemetry. *)
end

(** {2 Reports} *)

type phase = {
  path : string;  (** Slash-joined span names, e.g. ["pipeline/classify"]. *)
  calls : int;
  total_ns : int64;  (** Wall time including children. *)
  self_ns : int64;  (** Wall time excluding child spans. *)
}

val phases : t -> phase list
(** Aggregated span tree in first-open order.  A span still open at report
    time (possible only when reporting from inside {!run}) is closed at the
    last recorded timestamp. *)

type kind = Sum | Dist

val merge : string -> kind -> samples:int -> total:int -> vmin:int -> vmax:int -> unit
(** [merge name kind ~samples ~total ~vmin ~vmax] folds a precomputed
    aggregate into the named counter, exactly as if [samples] individual
    {!count}/{!observe} calls totalling [total] with extremes
    [vmin]/[vmax] had been recorded one by one.  This is the replay
    primitive behind memoization: a cache hit re-emits the counters of the
    evaluation it skips (the scheduler's [Eval] cache), so counter tables stay
    byte-identical whether or not a result came from the cache.  No-op
    when no collector is installed or [samples <= 0]. *)

type counter = {
  name : string;
  kind : kind;
  samples : int;  (** Number of {!count}/{!observe} calls merged in. *)
  total : int;  (** Sum of all recorded values. *)
  vmin : int;
  vmax : int;
}

val counters : t -> counter list
(** All counters sorted by name — a deterministic presentation whatever
    order merging inserted them in. *)

val event_count : t -> int
(** Raw number of recorded span events (opens + closes); 0 for a collector
    that was never installed.  Exposed for the test suite. *)

val well_formed : t -> bool
(** Every close matches an open and the stream ends at depth zero. *)

val summary_table : t -> string
(** The per-phase timing/counter tables as aligned ASCII — what
    [mpsched ... --stats] prints to stderr. *)

val chrome_trace : t -> string
(** The run as Chrome trace-event JSON (the ["traceEvents"] array of
    complete ["ph":"X"] events plus a ["counters"] object), loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Span
    timestamps are microseconds relative to the collector's creation;
    [tid] is the OCaml domain the span ran on, so a [--jobs N] trace shows
    one track per domain. *)

val validate_chrome_trace : string -> (int, string) result
(** Re-parses an emitted trace through {!Json} and checks the shape every
    consumer relies on: a ["traceEvents"] array whose members carry
    [name]/[ph]/[ts]/[dur]/[pid]/[tid], and a ["counters"] object.
    Returns the number of trace events — [mpsched tracecheck] is this
    function on a file. *)
