(** Lowering expressions to programs — the Transformation phase of the
    Montium compiler flow the paper builds on (its reference [3]).

    Each named output expression becomes a tree of DFG nodes; with [cse]
    (default on), structurally equal subexpressions — after normalizing
    commutative operand order — are shared, so the result is a DAG, exactly
    the shape the 3DFT graph of Fig. 2 has.  Constants were already folded
    by the {!Expr} smart constructors; remaining constants become
    instruction literals, and variables become external inputs (neither
    occupies a DFG node, matching the paper's graphs where only operations
    are nodes). *)

val lower : ?cse:bool -> (string * Expr.t) list -> Program.t
(** @raise Invalid_argument on duplicate output names.  An output that is a
    bare variable or constant is materialized as an addition with 0 so it
    owns a node. *)
