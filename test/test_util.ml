(* Unit and property tests for the utility kernel: PRNG, multisets, bitsets,
   heaps, list chunking, statistics, table rendering, the CSV writer. *)

module Rng = Mps_util.Rng
module Bitset = Mps_util.Bitset
module Mstats = Mps_util.Mstats
module Ascii_table = Mps_util.Ascii_table
module Listx = Mps_util.Listx
module Csv = Mps_util.Csv
module Cms = Mps_util.Multiset.Make (Char)
module Int_heap = Mps_util.Heap.Make (Int)

module Astring_like = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
end

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:124 in
  let diff = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 c)) then diff := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !diff

let test_rng_copy_split () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b);
  let child = Rng.split a in
  let x = Rng.bits64 child and y = Rng.bits64 a in
  Alcotest.(check bool) "split decorrelates" true (not (Int64.equal x y))

let test_rng_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "int in bound" true (x >= 0 && x < 7);
    let y = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "int_in inclusive" true (y >= -3 && y <= 3);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in bound" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniformity () =
  (* Coarse chi-square-free check: each of 8 buckets within 30% of mean. *)
  let rng = Rng.create ~seed:77 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Rng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true
        (abs (c - (n / 8)) < n / 8 * 3 / 10))
    buckets

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:3 in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle_list rng l in
  Alcotest.(check (list int)) "same elements" l (List.sort compare s)

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:4 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample_without_replacement rng 10 arr in
  Alcotest.(check int) "ten drawn" 10 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length sorted)

(* --- multiset --- *)

let test_multiset_basics () =
  let m = Cms.of_list [ 'a'; 'b'; 'a'; 'c'; 'a' ] in
  Alcotest.(check int) "cardinal" 5 (Cms.cardinal m);
  Alcotest.(check int) "support" 3 (Cms.support_size m);
  Alcotest.(check int) "count a" 3 (Cms.count 'a' m);
  Alcotest.(check int) "count z" 0 (Cms.count 'z' m);
  Alcotest.(check (list char)) "to_list sorted" [ 'a'; 'a'; 'a'; 'b'; 'c' ] (Cms.to_list m);
  let m' = Cms.remove ~times:2 'a' m in
  Alcotest.(check int) "remove twice" 1 (Cms.count 'a' m');
  let m'' = Cms.remove ~times:5 'a' m in
  Alcotest.(check bool) "clamped removal" false (Cms.mem 'a' m'')

let test_multiset_algebra () =
  let a = Cms.of_list [ 'x'; 'x'; 'y' ] and b = Cms.of_list [ 'x'; 'y'; 'y'; 'z' ] in
  Alcotest.(check (list (pair char int))) "union max"
    [ ('x', 2); ('y', 2); ('z', 1) ]
    (Cms.to_counted_list (Cms.union a b));
  Alcotest.(check (list (pair char int))) "sum"
    [ ('x', 3); ('y', 3); ('z', 1) ]
    (Cms.to_counted_list (Cms.sum a b));
  Alcotest.(check (list (pair char int))) "inter"
    [ ('x', 1); ('y', 1) ]
    (Cms.to_counted_list (Cms.inter a b));
  Alcotest.(check (list (pair char int))) "diff" [ ('x', 1) ]
    (Cms.to_counted_list (Cms.diff a b));
  Alcotest.(check bool) "subset yes" true (Cms.subset (Cms.of_list [ 'x'; 'y' ]) a);
  Alcotest.(check bool) "subset no" false (Cms.subset b a)

let char_list_gen = QCheck2.Gen.(list_size (0 -- 12) (char_range 'a' 'e'))

let multiset_props =
  [
    qtest "multiset: cardinal = list length" char_list_gen (fun l ->
        Cms.cardinal (Cms.of_list l) = List.length l);
    qtest "multiset: to_list round-trips" char_list_gen (fun l ->
        Cms.equal (Cms.of_list (Cms.to_list (Cms.of_list l))) (Cms.of_list l));
    qtest "multiset: inter subset both"
      QCheck2.Gen.(pair char_list_gen char_list_gen)
      (fun (l1, l2) ->
        let a = Cms.of_list l1 and b = Cms.of_list l2 in
        let i = Cms.inter a b in
        Cms.subset i a && Cms.subset i b);
    qtest "multiset: diff + inter = original"
      QCheck2.Gen.(pair char_list_gen char_list_gen)
      (fun (l1, l2) ->
        let a = Cms.of_list l1 and b = Cms.of_list l2 in
        Cms.equal (Cms.sum (Cms.diff a b) (Cms.inter a b)) a);
    (* subset is the pattern algebra's subpattern relation; pin down that
       it is a partial order. *)
    qtest "multiset: subset reflexive" char_list_gen (fun l ->
        let a = Cms.of_list l in
        Cms.subset a a);
    qtest "multiset: subset antisymmetric"
      QCheck2.Gen.(pair char_list_gen char_list_gen)
      (fun (l1, l2) ->
        let a = Cms.of_list l1 and b = Cms.of_list l2 in
        (not (Cms.subset a b && Cms.subset b a)) || Cms.equal a b);
    qtest "multiset: subset transitive"
      QCheck2.Gen.(triple char_list_gen char_list_gen char_list_gen)
      (fun (l1, l2, l3) ->
        let a = Cms.of_list l1 and b = Cms.of_list l2 and c = Cms.of_list l3 in
        (not (Cms.subset a b && Cms.subset b c)) || Cms.subset a c);
    qtest "multiset: union/inter lattice absorption"
      QCheck2.Gen.(pair char_list_gen char_list_gen)
      (fun (l1, l2) ->
        let a = Cms.of_list l1 and b = Cms.of_list l2 in
        Cms.equal (Cms.union a (Cms.inter a b)) a
        && Cms.equal (Cms.inter a (Cms.union a b)) a);
  ]

(* --- bitset --- *)

let test_bitset_basics () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: element 100 out of universe [0,100)") (fun () ->
      Bitset.add s 100)

let test_bitset_full_and_ops () =
  let f = Bitset.full 70 in
  Alcotest.(check int) "full cardinal" 70 (Bitset.cardinal f);
  let a = Bitset.of_list 70 [ 1; 5; 64; 69 ] in
  let b = Bitset.of_list 70 [ 5; 6; 69 ] in
  Alcotest.(check (list int)) "inter" [ 5; 69 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 5; 6; 64; 69 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "diff" [ 1; 64 ] (Bitset.elements (Bitset.diff a b));
  Alcotest.(check bool) "subset" true (Bitset.subset (Bitset.inter a b) a)

let test_bitset_first_from () =
  let s = Bitset.of_list 200 [ 3; 70; 199 ] in
  Alcotest.(check (option int)) "from 0" (Some 3) (Bitset.first_from s 0);
  Alcotest.(check (option int)) "from 4" (Some 70) (Bitset.first_from s 4);
  Alcotest.(check (option int)) "from 71" (Some 199) (Bitset.first_from s 71);
  Alcotest.(check (option int)) "past end" None (Bitset.first_from s 200)

(* The word primitives against a bit-by-bit loop: every single-bit word
   (the sign bit included) and arbitrary words of either sign. *)
let naive_bits w =
  List.filter (fun k -> w land (1 lsl k) <> 0) (List.init Bitset.word_bits Fun.id)

let test_bitset_word_primitives () =
  for k = 0 to Bitset.word_bits - 1 do
    Alcotest.(check int)
      (Printf.sprintf "lowest_bit 2^%d" k)
      k
      (Bitset.lowest_bit (1 lsl k));
    Alcotest.(check int) (Printf.sprintf "popcount 2^%d" k) 1 (Bitset.popcount (1 lsl k))
  done;
  Alcotest.(check int) "popcount -1" Bitset.word_bits (Bitset.popcount (-1));
  Alcotest.(check int) "popcount 0" 0 (Bitset.popcount 0)

let word_props =
  [
    qtest ~count:500 "bitset: lowest_bit and popcount = bit loop"
      QCheck2.Gen.(map2 (fun a b -> (a lsl 31) lxor b) int int)
      (fun w ->
        Bitset.popcount w = List.length (naive_bits w)
        && (w = 0 || Bitset.lowest_bit w = List.hd (naive_bits w)));
  ]

let int_list_gen = QCheck2.Gen.(list_size (0 -- 30) (0 -- 99))

let bitset_props =
  [
    qtest "bitset: elements = sorted dedup" int_list_gen (fun l ->
        Bitset.elements (Bitset.of_list 100 l) = List.sort_uniq compare l);
    qtest "bitset: de morgan" QCheck2.Gen.(pair int_list_gen int_list_gen)
      (fun (l1, l2) ->
        let a = Bitset.of_list 100 l1 and b = Bitset.of_list 100 l2 in
        let lhs = Bitset.diff (Bitset.full 100) (Bitset.union a b) in
        let rhs =
          Bitset.inter
            (Bitset.diff (Bitset.full 100) a)
            (Bitset.diff (Bitset.full 100) b)
        in
        Bitset.equal lhs rhs);
    qtest "bitset: iter ascending" int_list_gen (fun l ->
        let s = Bitset.of_list 100 l in
        let prev = ref (-1) in
        let ok = ref true in
        Bitset.iter
          (fun i ->
            if i <= !prev then ok := false;
            prev := i)
          s;
        !ok);
  ]

(* Model-based check against the stdlib's Set over int: same answers for
   union/inter/diff/cardinal/mem/iter/first_from, at the word-boundary
   universes 63/64/65 where the packed representation's last-word masking
   can go wrong (plus one comfortably multi-word size). *)
module Int_set = Set.Make (Int)

let bitset_model_props =
  let gen =
    QCheck2.Gen.(
      bind (oneofl [ 63; 64; 65; 130 ]) (fun u ->
          let elems = list_size (0 -- 40) (int_bound (u - 1)) in
          map (fun (l1, l2) -> (u, l1, l2)) (pair elems elems)))
  in
  let check_same name op_bitset op_model =
    qtest ("bitset vs model: " ^ name) gen (fun (u, l1, l2) ->
        let b1 = Bitset.of_list u l1 and b2 = Bitset.of_list u l2 in
        let m1 = Int_set.of_list l1 and m2 = Int_set.of_list l2 in
        op_bitset u b1 b2 = op_model u m1 m2)
  in
  [
    check_same "union elements"
      (fun _ a b -> Bitset.elements (Bitset.union a b))
      (fun _ a b -> Int_set.elements (Int_set.union a b));
    check_same "inter elements"
      (fun _ a b -> Bitset.elements (Bitset.inter a b))
      (fun _ a b -> Int_set.elements (Int_set.inter a b));
    check_same "diff elements"
      (fun _ a b -> Bitset.elements (Bitset.diff a b))
      (fun _ a b -> Int_set.elements (Int_set.diff a b));
    check_same "cardinal of union"
      (fun _ a b -> Bitset.cardinal (Bitset.union a b))
      (fun _ a b -> Int_set.cardinal (Int_set.union a b));
    check_same "iter visits the model's elements"
      (fun _ a b ->
        let acc = ref [] in
        Bitset.iter (fun i -> acc := i :: !acc) (Bitset.inter a b);
        List.rev !acc)
      (fun _ a b -> Int_set.elements (Int_set.inter a b));
    check_same "subset"
      (fun _ a b -> Bitset.subset a b)
      (fun _ a b -> Int_set.subset a b);
    check_same "mem across the whole universe"
      (fun u a b -> List.init u (fun i -> Bitset.mem (Bitset.union a b) i))
      (fun u a b -> List.init u (fun i -> Int_set.mem i (Int_set.union a b)));
    check_same "first_from across the whole universe"
      (fun u a _ -> List.init (u + 1) (fun i -> Bitset.first_from a i))
      (fun u a _ ->
        List.init (u + 1) (fun i -> Int_set.find_first_opt (fun x -> x >= i) a));
    check_same "full minus set = complement"
      (fun u a _ -> Bitset.elements (Bitset.diff (Bitset.full u) a))
      (fun u a _ ->
        List.filter (fun i -> not (Int_set.mem i a)) (List.init u Fun.id));
  ]

(* --- heap --- *)

let test_heap_sorts () =
  let h = Int_heap.of_list [ 5; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check (list int)) "drain sorted" [ 1; 1; 2; 4; 5; 5; 6; 9 ]
    (Int_heap.drain h);
  Alcotest.(check bool) "empty after drain" true (Int_heap.is_empty h)

let test_heap_nondestructive_view () =
  let h = Int_heap.of_list [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "sorted view" [ 1; 2; 3 ] (Int_heap.to_sorted_list h);
  Alcotest.(check int) "untouched" 3 (Int_heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Int_heap.min_elt h)

let heap_props =
  [
    qtest "heap: drain = sort" QCheck2.Gen.(list_size (0 -- 50) (0 -- 1000))
      (fun l -> Int_heap.drain (Int_heap.of_list l) = List.sort compare l);
  ]

(* --- listx --- *)

let test_chunks () =
  Alcotest.(check (list (list int))) "ragged tail" [ [ 1; 2; 3 ]; [ 4; 5 ] ]
    (Listx.chunks 3 [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int))) "exact fit" [ [ 1; 2 ]; [ 3; 4 ] ]
    (Listx.chunks 2 [ 1; 2; 3; 4 ]);
  Alcotest.(check (list (list int))) "empty" [] (Listx.chunks 4 []);
  Alcotest.check_raises "size 0"
    (Invalid_argument "Listx.chunks: size must be >= 1") (fun () ->
      ignore (Listx.chunks 0 [ 1 ]))

(* Chunks concatenate back to the input, and only the last one is short. *)
let chunks_props =
  [
    qtest "chunks: concat inverts, only the last is short"
      QCheck2.Gen.(pair (1 -- 6) (list_size (0 -- 40) (0 -- 9)))
      (fun (k, l) ->
        let cs = Listx.chunks k l in
        let rec shape = function
          | [] -> true
          | [ last ] -> List.length last >= 1 && List.length last <= k
          | c :: rest -> List.length c = k && shape rest
        in
        List.concat cs = l && shape cs);
  ]

(* --- stats --- *)

let test_stats () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Mstats.mean xs);
  Alcotest.(check (float 1e-9)) "stddev (sample)" (sqrt (32.0 /. 7.0)) (Mstats.stddev xs);
  Alcotest.(check (float 1e-9)) "median" 4.5 (Mstats.median xs);
  Alcotest.(check (float 1e-9)) "p0 = min" 2.0 (Mstats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 9.0 (Mstats.percentile xs 100.0);
  let lo, hi = Mstats.min_max xs in
  Alcotest.(check (pair (float 0.) (float 0.))) "min_max" (2.0, 9.0) (lo, hi);
  Alcotest.check_raises "empty mean" (Invalid_argument "Mstats.mean: empty input")
    (fun () -> ignore (Mstats.mean [||]))

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0 |] in
  let h = Mstats.histogram ~bins:2 xs in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check (pair int int)) "counts" (2, 2) (c0, c1)

(* --- ascii table --- *)

let test_table_render () =
  let t = Ascii_table.create ~header:[ "name"; "value" ] () in
  Ascii_table.add_row t [ "x"; "1" ];
  Ascii_table.add_separator t;
  Ascii_table.add_row t [ "longer"; "234" ];
  let s = Ascii_table.render t in
  Alcotest.(check bool) "contains header" true
    (Astring_like.contains s "name" && Astring_like.contains s "value");
  Alcotest.(check bool) "contains rows" true
    (Astring_like.contains s "longer" && Astring_like.contains s "234");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Ascii_table.add_row: row width mismatch") (fun () ->
      Ascii_table.add_row t [ "only-one" ])

(* --- csv --- *)

let test_csv_basic () =
  let t = Csv.create ~header:[ "name"; "value" ] in
  Csv.add_row t [ "plain"; "1" ];
  Csv.add_row t [ "with,comma"; "2" ];
  Csv.add_row t [ "with\"quote"; "3" ];
  Alcotest.(check string) "rendering"
    "name,value\nplain,1\n\"with,comma\",2\n\"with\"\"quote\",3\n"
    (Csv.render t);
  Alcotest.check_raises "width check" (Invalid_argument "Csv.add_row: row width mismatch")
    (fun () -> Csv.add_row t [ "too"; "many"; "fields" ])

let test_csv_save () =
  let t = Csv.of_table_rows ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  let path = Filename.temp_file "mpsched" ".csv" in
  Csv.save ~path t;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file content" "a,b\n1,2\n3,4\n" content

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_split;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
          Alcotest.test_case "sampling" `Quick test_sample_without_replacement;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "basics" `Quick test_multiset_basics;
          Alcotest.test_case "algebra" `Quick test_multiset_algebra;
        ]
        @ multiset_props );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "full and ops" `Quick test_bitset_full_and_ops;
          Alcotest.test_case "first_from" `Quick test_bitset_first_from;
          Alcotest.test_case "word primitives" `Quick test_bitset_word_primitives;
        ]
        @ word_props @ bitset_props @ bitset_model_props );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "non-destructive view" `Quick test_heap_nondestructive_view;
        ]
        @ heap_props );
      ("listx", Alcotest.test_case "chunks" `Quick test_chunks :: chunks_props);
      ( "stats",
        [
          Alcotest.test_case "moments and percentiles" `Quick test_stats;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ("ascii-table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "csv",
        [
          Alcotest.test_case "quoting" `Quick test_csv_basic;
          Alcotest.test_case "save" `Quick test_csv_save;
        ] );
    ]
