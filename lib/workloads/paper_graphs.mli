(** The exact graphs the paper evaluates on, plus the published numbers.

    Figure 2's 3DFT graph is reconstructed from the paper's tables — see
    DESIGN.md §2 for the derivation and the evidence that the reconstruction
    is the paper's graph (Table 1's 22 level triples and all 25 antichain
    counts of Table 5 are reproduced exactly).  Figure 4's 5-node example is
    pinned down by Table 4 (its antichains) and Table 6 (node
    frequencies). *)

val fig2_3dft : unit -> Mps_dfg.Dfg.t
(** The 24-node 3-point DFT data-flow graph of Fig. 2: 14 additions ('a'),
    4 subtractions ('b'), 6 multiplications ('c'). *)

val fig4_small : unit -> Mps_dfg.Dfg.t
(** The 5-node example of Fig. 4: a1→a2→{b4,b5}, a3→{b4,b5}. *)

val montium_capacity : int
(** C = 5 ALUs per Montium tile. *)

val table1 : (string * (int * int * int)) list
(** Table 1 verbatim: node name ↦ (ASAP, ALAP, Height) for the 22 nodes the
    paper lists (c12 and c14 are absent there). *)

val table5 : (int * int array) list
(** Table 5 verbatim: span limit ↦ antichain counts for sizes 1..5, ordered
    as printed (limits 4 down to 0). *)

val table3_pattern_sets : (string list * int) list
(** Table 3 verbatim: the three 4-pattern sets (as pattern spellings) with
    the paper's resulting cycle counts. *)

val table7_3dft : (int * float * int) list
(** Table 7, 3DFT columns: Pdef ↦ (random average over 10 runs, selected). *)

val table7_5dft : (int * float * int) list
(** Table 7, 5DFT columns. *)

val section4_patterns : string * string
(** The §4.3 worked example's two given patterns: ("aabcc", "aaacc"). *)

val section4_cycles : int
(** Length of the §4.3 example schedule (Table 2 has 7 rows). *)

val table2 : (string * int) list
(** Table 2 verbatim, reduced to its tie-break-invariant content: per clock
    cycle, the color bag of the scheduled nodes (canonical pattern
    spelling) and the chosen pattern (1 or 2).  The paper's node-level
    trace differs from any reimplementation by the graph's mirror
    symmetry, but these bags and choices are symmetry-invariant and must
    match exactly. *)
