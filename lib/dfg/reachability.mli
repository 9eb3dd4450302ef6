(** Transitive reachability and the parallelizability relation (paper §3).

    [n] is a {e follower} of [m] when a directed path leads from [m] to [n].
    Two nodes are {e parallelizable} when neither follows the other; a set of
    pairwise parallelizable nodes is an antichain.  This module materializes
    the relation as per-node bitsets so the antichain enumerator can test
    set-compatibility by intersection. *)

type t

val compute : Dfg.t -> t

val node_count : t -> int

val is_follower : t -> of_:int -> int -> bool
(** [is_follower r ~of_:m n]: is there a (non-empty) path from [m] to [n]? *)

val comparable : t -> int -> int -> bool
(** Either follows the other (false for [i = i]: a node is not a follower of
    itself unless the graph had a cycle, which [Dfg] excludes). *)

val parallelizable : t -> int -> int -> bool
(** [not (comparable r i j)] for distinct nodes; a node is {e not} considered
    parallelizable with itself (an antichain cannot contain it twice). *)

val descendants : t -> int -> Mps_util.Bitset.t
(** All followers of the node.  The returned bitset is shared internal
    state: treat it as read-only. *)

val parallel_set : t -> int -> Mps_util.Bitset.t
(** All nodes parallelizable with the node (excludes the node itself).
    Read-only, as above. *)

val comparable_pairs : t -> int
(** Number of unordered comparable pairs — C(n,2) minus this is the count of
    size-2 antichains, the cross-check that pinned down the paper's Fig. 2
    graph (see DESIGN.md §2). *)

val is_antichain : t -> int list -> bool
(** Pairwise parallelizable and duplicate-free. *)
