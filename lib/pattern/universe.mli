(** An interning arena for patterns: the pattern universe.

    Every hot phase of the flow — antichain classification (§5.1), pattern
    selection (§5.2), multi-pattern scheduling (§4) — works on the same
    small set of distinct patterns.  A universe maps each distinct pattern
    to a dense integer id ({!Pattern.Id.t}), so tables can be arrays
    indexed by id, and memoizes each id's size and color set at interning
    time.

    Dominance is not a universe question.  Fig. 7 needs one dominance row
    per step, the subpatterns of the pattern just chosen, so selection,
    beam, exact search and harvest test [Pattern.subpattern] on the
    patterns they hold.

    Ids are allocated densely in first-interning order, which makes them
    deterministic for any deterministic visit order — and {!merge} folds a
    second universe in {e its} id order, so per-domain universes merged in
    submission order yield the same master ids as the sequential walk.

    A universe is a mutable arena, not a thread-safe object: interning and
    querying must happen from one domain at a time.  Parallel phases give
    each domain its own scratch universe and {!merge} them afterwards. *)

type t

val create : ?expected:int -> unit -> t
(** A fresh, empty universe.  [expected] pre-sizes the arena (default 64);
    it is a hint, not a bound. *)

val cardinal : t -> int
(** Number of distinct patterns interned so far.  Ids [0 .. cardinal-1] are
    live. *)

val intern : t -> Pattern.t -> Pattern.Id.t
(** The id of the pattern, allocating the next dense id on first sight.
    Injective: two patterns receive the same id iff they are [Pattern.equal]. *)

val find : t -> Pattern.t -> Pattern.Id.t option
(** The id of an already-interned pattern, without allocating. *)

val pattern : t -> Pattern.Id.t -> Pattern.t
(** The pattern of an id: the round-trip inverse of {!intern}. *)

val size : t -> Pattern.Id.t -> int
(** Memoized [Pattern.size]. *)

val color_set : t -> Pattern.Id.t -> Mps_dfg.Color.Set.t
(** Memoized [Pattern.color_set]. *)

val merge : into:t -> t -> Pattern.Id.t array
(** [merge ~into other] interns every pattern of [other] into [into], in
    [other]'s id order, and returns the translation table: slot [i] holds
    the id in [into] of [other]'s id [i].  [other] is not modified. *)

val iter : (Pattern.Id.t -> Pattern.t -> unit) -> t -> unit
(** Iterates live ids in increasing (= interning) order. *)

val fold : (Pattern.Id.t -> Pattern.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f u init] folds [f] over the live ids in increasing (= interning)
    order: the accumulator-threading counterpart of {!iter}. *)

val sorted_ids : t -> Pattern.Id.t array
(** All live ids ordered by [Pattern.compare] of their patterns — the
    canonical presentation order every text format uses.  Fresh array. *)
