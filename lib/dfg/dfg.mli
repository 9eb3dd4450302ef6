(** Data-flow graphs (paper §3).

    A node represents an operation and carries a {e color} (its operation
    type); a directed edge represents a data dependency.  The graph is a DAG:
    [Builder.build] verifies acyclicity.

    Nodes are identified by dense integer ids [0 .. node_count-1], which the
    analyses (levels, reachability, antichain enumeration) exploit for
    array-indexed storage.  Each node also has a human-readable name ("a24",
    "b3", …) used by parsers, traces and everything printed next to the
    paper's tables. *)

type t

type node = private {
  id : int;
  name : string;
  color : Color.t;
}

exception Cycle of string list
(** Raised by {!Builder.build} with the names of the nodes on one offending
    cycle, in order. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : t -> ?name:string -> Color.t -> int
  (** Returns the new node's id.  [name] defaults to the color letter
      followed by the id (e.g. ["a7"]).
      @raise Invalid_argument if the name is already taken or empty. *)

  val find_opt : t -> string -> int option
  (** The id of the node added under [name], if any. *)

  val add_edge : t -> int -> int -> unit
  (** [add_edge b src dst].  Duplicate edges are collapsed; self-loops are
      rejected immediately.
      @raise Invalid_argument on unknown ids or [src = dst]. *)

  val build : t -> graph
  (** Freezes the graph.  @raise Cycle if the edge relation is cyclic.
      The builder may keep being extended afterwards; each [build] takes a
      snapshot. *)
end

val of_alist : (string * Color.t) list -> (string * string) list -> t
(** [of_alist nodes edges] builds a graph from named nodes and name pairs —
    the convenient form for hand-written graphs like the paper's examples.
    Ids are assigned in list order.
    @raise Invalid_argument on duplicate or unknown names.
    @raise Cycle as for [Builder.build]. *)

(** {1 Accessors} *)

val node_count : t -> int
val edge_count : t -> int

val node : t -> int -> node
(** @raise Invalid_argument on an out-of-range id (everywhere below too). *)

val name : t -> int -> string
val color : t -> int -> Color.t

val find : t -> string -> int
(** Node id by name.  @raise Not_found. *)

val find_opt : t -> string -> int option

val succs : t -> int -> int list
(** Direct successors, increasing id order. *)

val succ_array : t -> int -> int array
(** {!succs} without the copy: the graph's own successor array, for inner
    loops that must not allocate.  Read it only — never mutate it, or
    every later query of the graph sees the change. *)

val preds : t -> int -> int list
(** Direct predecessors, increasing id order. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val sources : t -> int list
(** Nodes with no predecessors, increasing id. *)

val sinks : t -> int list
(** Nodes with no successors, increasing id. *)

val nodes : t -> int list
(** All ids, increasing. *)

val edges : t -> (int * int) list
(** All edges, lexicographic order. *)

val iter_nodes : (int -> unit) -> t -> unit
val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (int -> int -> unit) -> t -> unit

val colors : t -> Color.t list
(** The complete color set L of the graph (§5.2), sorted, deduplicated. *)

val color_counts : t -> (Color.t * int) list
(** Distinct colors with the number of nodes of each, sorted by color. *)

val equal : t -> t -> bool
(** Same node names, colors and edge relation (ids may differ). *)

(** {1 Derived graphs} *)

val reverse : t -> t
(** Same nodes, every edge flipped. *)

val induced : t -> int list -> t * int array
(** [induced g ids] is the subgraph on [ids] (names and colors preserved,
    fresh dense ids) together with the mapping from new id to old id.
    @raise Invalid_argument on duplicate or out-of-range ids. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Compact one-line-per-node summary, for debugging. *)
