(** The [Printf]-based canonical text and the line-splitting format sniff
    that [Mps_dfg.Parse] replaced, kept with the tests as the references
    [Parse.to_string] and [Parse.is_dot] are checked against byte for
    byte and decision for decision. *)

val to_string : Mps_dfg.Dfg.t -> string
(** One [Printf.sprintf] line per node in id order, then one per edge of
    [Dfg.edges] (lexicographic order). *)

val is_dot : string -> bool
(** Splits the whole text into lines, strips ["//"] and ['#'] comments
    from each, and decides on the first token of the first line that has
    one: [digraph] as a prefix, or [strict] exactly. *)
