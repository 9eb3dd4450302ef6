(** Deterministic domain-based work pool.

    The selection pipeline is embarrassingly parallel at two levels —
    independent candidate pattern sets in the portfolio, and independent
    root branches of the antichain enumeration — and OCaml 5 Domains let us
    exploit that without touching the algorithms.  This pool is the one
    primitive everything parallel in the repo goes through, built around a
    single contract:

    {b determinism} — for a pure [f], [map pool ~f xs] returns exactly
    [List.map f xs], bit for bit, whatever the worker count.  Tasks are
    handed out one at a time (an atomic cursor over the index space, so an
    unbalanced task set still load-balances), but every result is written
    to its submission-order slot and the merged output never depends on
    completion order.  A pool with [jobs = 1] does not
    even spawn domains: it runs the plain sequential loop, so the legacy
    code path {e is} the jobs=1 code path.

    Workers are spawned once at {!create} and parked on a condition
    variable between batches, so a pool can be reused across many [map]
    calls (the benchmarks run thousands) without per-call spawn cost. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (the submitting domain
    is the remaining worker).  [jobs = 1] spawns nothing and makes every
    operation purely sequential.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The worker count the pool was created with (including the submitting
    domain), i.e. the [jobs] argument of {!create} — callers use it to
    decide whether parallel set-up (scratch universes, per-root tables) is
    worth building at all. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to. *)

val shutdown : t -> unit
(** Stops and joins the workers.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on the
    way out, exception or not. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f xs] is [List.map f xs], computed on the pool's domains,
    results in submission order.  Callers that need a reduction fold the
    returned list themselves, which keeps the fold on the submitting
    domain and its order fixed.

    If one or more tasks raise, the exception of the {e earliest} task in
    submission order is re-raised — again independent of timing.  Unlike
    the sequential path, later tasks may still have run; tasks should
    therefore be pure or at least safe to run speculatively.

    Not re-entrant: [f] must not call [map] on the same pool.

    {b Observability.}  When the submitting domain has an active
    {!Mps_obs.Obs} collector, each task records spans/counters into a
    per-task buffer and the buffers are committed in submission order
    after the batch, inside a ["pool"] span — so telemetry, like results,
    is independent of worker count and timing.  If any task raised, the
    whole batch's buffers are discarded before the exception is re-raised. *)
