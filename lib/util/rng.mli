(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (random pattern baselines,
    random DAG workloads, property-test corpora) draw from this module so that
    every experiment is replayable from a single integer seed.

    The generator is xoshiro256** (Blackman & Vigna), seeded through
    splitmix64, both implemented on OCaml's 63-bit native [int] arithmetic
    with explicit 64-bit masking.  The statistical quality is far beyond what
    the experiments need; the point is determinism and independence of the
    OCaml stdlib's unspecified [Random] evolution across compiler versions. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from any integer seed.  Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t].  Use it to give each experiment arm its own stream so that
    adding draws to one arm does not perturb another. *)

val copy : t -> t
(** [copy t] is an independent snapshot of [t]'s current state; the copy and
    the original then produce identical streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on [||]. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  @raise Invalid_argument on []. *)

val shuffle_list : t -> 'a list -> 'a list
(** Persistent shuffle of a list. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] draws [k] distinct positions of
    [arr] uniformly.  @raise Invalid_argument if [k < 0] or
    [k > Array.length arr]. *)
