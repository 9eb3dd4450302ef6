(** The [Printf]-based canonical text, the line-splitting format sniff
    and the line-splitting native parser that [Mps_dfg.Parse] replaced,
    kept with the tests as the references [Parse.to_string], [Parse.is_dot]
    and [Parse.of_string] are checked against byte for byte, decision for
    decision and error for error. *)

val to_string : Mps_dfg.Dfg.t -> string
(** One [Printf.sprintf] line per node in id order, then one per edge of
    [Dfg.edges] (lexicographic order). *)

val is_dot : string -> bool
(** Splits the whole text into lines, strips ["//"] and ['#'] comments
    from each, and decides on the first token of the first line that has
    one: [digraph] as a prefix, or [strict] exactly. *)

val of_native_string : string -> Mps_dfg.Dfg.t
(** Splits the text into lines and each comment-stripped line into
    space/tab tokens, then matches [node NAME COLOR] and [edge SRC DST];
    an edge resolves its destination first (OCaml's right-to-left
    argument order).
    @raise Mps_dfg.Parse.Parse_error and [Dfg.Cycle] as [Parse.of_string]. *)
