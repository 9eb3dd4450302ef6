(** Textual DFG formats: load and save graphs as plain files.

    The native format is line-based:

    {v
    # comment (also after '#' on any line)
    node <name> <color-char>
    edge <src-name> <dst-name>
    v}

    Blank lines are ignored.  Nodes must be declared before edges mention
    them; node ids are assigned in declaration order, so a round-trip
    through {!to_string}/{!of_string} preserves ids.

    The native reader makes one pass over the text.  Lines end at ['\n']
    (line numbers count from 1, and the text after the last ['\n'] is a
    line too); a comment runs from a line's first ['#'].  Tokens are
    separated by spaces and tabs only, so a ['\r'] stays inside its token
    ([node a b\r] has the two-character color ["b\r"]).  Errors, first
    failing line first:
    - a line with a token count other than three, or whose first token is
      neither [node] nor [edge], is ["unknown directive"] naming that
      first token;
    - a [node] color of more or fewer than one character is refused
      before the color itself is checked; [Color.of_char]'s message for
      an invalid color and the builder's for a duplicate name pass
      through;
    - an [edge] resolves its destination before its source, so an edge
      between two unknown names reports the destination; a self-loop is
      the builder's message.
    A cycle is reported only after the whole text has been read.

    {!of_string} and {!load} also accept a {b Graphviz DOT subset} — just
    enough to read back what {!Dot.render} writes and the checked-in figure
    files (e.g. [fig2_3dft.dot]).  A file whose first meaningful token is
    [digraph] (or [strict]) is parsed as DOT: one statement per line, node
    statements [["name" [attrs];]] and edge chains [["a" -> "b" -> "c";]].
    Attributes, [rankdir=...] lines and [node]/[edge]/[graph] defaults are
    ignored; a node's color is the first character of its name (the
    repo-wide convention the DOT renderer itself uses), and nodes may be
    declared implicitly by an edge.  Ids follow first appearance order. *)

exception Parse_error of { line : int; message : string }

val of_string : string -> Dfg.t
(** Parses the native format, or the DOT subset when the text starts with
    [digraph]/[strict].
    @raise Parse_error on malformed input.
    @raise Dfg.Cycle if the described graph is cyclic. *)

val is_dot : string -> bool
(** The format sniff {!of_string} uses: [true] when the first token of
    the first line that has one (comments after ['#'] or ["//"] and
    space/tab separators aside) starts with [digraph] or is [strict].
    Reads no further than that line. *)

val to_string : Dfg.t -> string
(** Inverse of {!of_string} up to comments and whitespace: the canonical
    text, one [node] line per node in id order, then one [edge] line per
    edge in lexicographic (source, destination) id order. *)

val load : string -> Dfg.t
(** [load path] reads and parses a file.  @raise Sys_error on I/O failure,
    plus the [of_string] exceptions. *)

val save : string -> Dfg.t -> unit
