(** Dense, fixed-universe bitsets.

    The antichain enumerator (paper §5.1) walks millions of candidate node
    sets; it represents "the set of nodes parallelizable with everything
    chosen so far" as a bitset over node ids and refines it by intersection.
    This module is the imperative kernel behind that walk: sets over the
    universe [0 .. universe-1] packed into an int array, with O(words)
    bulk operations. *)

type t

val create : int -> t
(** [create universe] is the empty set over [0 .. universe-1].
    @raise Invalid_argument if [universe < 0]. *)

val universe : t -> int
(** Size of the universe the set was created over. *)

val full : int -> t
(** [full universe] contains every element of the universe. *)

val copy : t -> t
val clear : t -> unit

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

(** Out-of-range elements raise [Invalid_argument] in the three functions
    above. *)

val cardinal : t -> int

val is_empty : t -> bool

val equal : t -> t -> bool

val union_into : dst:t -> t -> unit
val diff_into : dst:t -> t -> unit

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val subset : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterates elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list

val first_from : t -> int -> int option
(** [first_from t i] is the smallest member ≥ [i], if any. *)

(** {2 Words}

    The antichain walker keeps its candidate sets as bare word arrays and
    visits members word by word with these. *)

val word_bits : int
(** Members per word: element [i] is bit [i mod word_bits] of word
    [i / word_bits]. *)

val to_words : t -> int array
(** A fresh copy of the set's words; bits past the universe are zero. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the least significant set bit of the
    nonzero word [w], in constant time.  [w land (w - 1)] then clears it. *)

val popcount : int -> int
(** Number of set bits of a word, in constant time. *)

val of_list : int -> int list -> t
(** [of_list universe elems]. *)

val pp : Format.formatter -> t -> unit
