(** The list helpers the standard library lacks.

    Tiny, total functions shared by the selection strategies and the
    schedulers — each used to carry its own local copy. *)

val take : int -> 'a list -> 'a list
(** [take k l] is the first [k] elements of [l], in order — the whole list
    when it is shorter, [[]] when [k <= 0].  Not tail-recursive; every
    caller takes a capacity-bounded prefix (single digits). *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k l] cuts [l] into consecutive runs of [k] elements, in order;
    only the last run may be shorter, and [[]] gives [[]].  Concatenating
    the result gives back [l].
    @raise Invalid_argument if [k < 1]. *)
