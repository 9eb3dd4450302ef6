module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color

let a = Color.add
let b = Color.sub
let c = Color.mul

(* Node declaration order fixes ids; we keep the paper's numbering order
   b1, a2, b3, a4, b5, b6, a7, a8, c9..c14, a15..a24 so that traces sort the
   way the paper's candidate lists read. *)
let fig2_3dft () =
  Dfg.of_alist
    [
      ("b1", b); ("a2", a); ("b3", b); ("a4", a); ("b5", b); ("b6", b);
      ("a7", a); ("a8", a);
      ("c9", c); ("c10", c); ("c11", c); ("c12", c); ("c13", c); ("c14", c);
      ("a15", a); ("a16", a); ("a17", a); ("a18", a); ("a19", a); ("a20", a);
      ("a21", a); ("a22", a); ("a23", a); ("a24", a);
    ]
    [
      (* first stage feeding the multiplier column *)
      ("a4", "c11"); ("a4", "a24");
      ("a2", "c10"); ("a2", "a16");
      ("b1", "c9"); ("b5", "c13");
      ("b3", "a8"); ("b6", "a7");
      ("a8", "c14"); ("a7", "c12");
      (* multiplier outputs recombine *)
      ("c9", "a15"); ("c13", "a18"); ("c14", "a20"); ("c12", "a17");
      ("c11", "a15"); ("c11", "a20");
      ("c10", "a18"); ("c10", "a17");
      (* final butterfly adds *)
      ("a15", "a19"); ("a18", "a22"); ("a20", "a23"); ("a17", "a21");
    ]

let fig4_small () =
  Dfg.of_alist
    [ ("a1", a); ("a2", a); ("a3", a); ("b4", b); ("b5", b) ]
    [ ("a1", "a2"); ("a2", "b4"); ("a2", "b5"); ("a3", "b4"); ("a3", "b5") ]

let montium_capacity = 5

let table1 =
  [
    ("b3", (0, 0, 5)); ("b6", (0, 0, 5));
    ("b1", (0, 1, 4)); ("b5", (0, 1, 4));
    ("a4", (0, 1, 4)); ("a2", (0, 1, 4));
    ("a8", (1, 1, 4)); ("a7", (1, 1, 4));
    ("c9", (1, 2, 3)); ("c13", (1, 2, 3));
    ("c11", (1, 2, 3)); ("c10", (1, 2, 3));
    ("a24", (1, 4, 1)); ("a16", (1, 4, 1));
    ("a15", (2, 3, 2)); ("a18", (2, 3, 2));
    ("a20", (3, 3, 2)); ("a17", (3, 3, 2));
    ("a19", (3, 4, 1)); ("a22", (3, 4, 1));
    ("a23", (4, 4, 1)); ("a21", (4, 4, 1));
  ]

let table5 =
  [
    (4, [| 24; 224; 1034; 2500; 3104 |]);
    (3, [| 24; 222; 1010; 2404; 2954 |]);
    (2, [| 24; 208; 870; 1926; 2282 |]);
    (1, [| 24; 178; 632; 1232; 1364 |]);
    (0, [| 24; 124; 304; 425; 356 |]);
  ]

let table3_pattern_sets =
  [
    ([ "abcbc"; "bbbab"; "bbbcb"; "babaa" ], 8);
    ([ "abcbc"; "bcbca"; "cbaba"; "bbccb" ], 9);
    ([ "abccc"; "aabac"; "cccaa"; "ababb" ], 7);
  ]

let table7_3dft =
  [ (1, 12.4, 8); (2, 10.5, 7); (3, 8.7, 7); (4, 7.9, 7); (5, 6.5, 6) ]

let table7_5dft =
  [ (1, 23.4, 19); (2, 22.0, 16); (3, 20.4, 16); (4, 15.8, 15); (5, 15.8, 15) ]

let section4_patterns = ("aabcc", "aaacc")
let section4_cycles = 7

(* Color bags of Table 2's per-cycle selected sets:
   {a2,a4,b6} {a7,a24,b3,c10,c11} {a8,a16,b5,c12} {a17,b1,c13,c14}
   {a18,a20,a21,c9} {a15,a22,a23} {a19}, with pattern choices
   1,1,1,1,2,2,1. *)
let table2 =
  [
    ("aab", 1); ("aabcc", 1); ("aabc", 1); ("abcc", 1);
    ("aaac", 2); ("aaa", 2); ("a", 1);
  ]
