(* The pattern universe: interning injectivity, memoized facts, merge
   translation, and id determinism of parallel classification. *)

module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Pool = Mps_exec.Pool
module Random_dag = Mps_workloads.Random_dag

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pat = Pattern.of_string

let pattern_gen =
  QCheck2.Gen.(
    map
      (fun chars -> Pattern.of_colors (List.map Color.of_char chars))
      (list_size (0 -- 6) (char_range 'a' 'd')))

let pool_gen = QCheck2.Gen.(list_size (1 -- 20) pattern_gen)

let test_intern_basics () =
  let u = Universe.create () in
  let a = Universe.intern u (pat "aab") in
  let b = Universe.intern u (pat "c") in
  let a' = Universe.intern u (pat "aba") in
  Alcotest.(check bool) "same pattern, same id" true (Pattern.Id.equal a a');
  Alcotest.(check bool) "distinct patterns, distinct ids" false
    (Pattern.Id.equal a b);
  Alcotest.(check int) "cardinal" 2 (Universe.cardinal u);
  Alcotest.(check int) "ids are dense from 0" 0 (Pattern.Id.to_int a);
  Alcotest.(check int) "allocation order" 1 (Pattern.Id.to_int b);
  Alcotest.(check bool) "pattern round-trips" true
    (Pattern.equal (pat "aab") (Universe.pattern u a));
  Alcotest.(check bool) "find hits" true
    (match Universe.find u (pat "aab") with
    | Some id -> Pattern.Id.equal id a
    | None -> false);
  Alcotest.(check bool) "find misses without allocating" true
    (Universe.find u (pat "abc") = None && Universe.cardinal u = 2)

let test_memoized_facts () =
  let u = Universe.create () in
  let id = Universe.intern u (pat "cabca") in
  Alcotest.(check int) "size" 5 (Universe.size u id);
  Alcotest.(check int) "color set" 3
    (Color.Set.cardinal (Universe.color_set u id));
  let bogus = Pattern.Id.of_int 7 in
  Alcotest.check_raises "dead id rejected"
    (Invalid_argument "Universe.size: id 7 not in universe (1 ids)") (fun () ->
      ignore (Universe.size u bogus))

let test_sorted_ids () =
  let u = Universe.create () in
  List.iter
    (fun s -> ignore (Universe.intern u (pat s)))
    [ "cc"; "a"; "aab"; "b"; "a" ];
  let sorted =
    Universe.sorted_ids u |> Array.to_list
    |> List.map (fun id -> Pattern.to_string (Universe.pattern u id))
  in
  Alcotest.(check (list string)) "sorted by Pattern.compare"
    (List.sort compare [ "cc"; "a"; "aab"; "b" ])
    (List.sort compare sorted);
  Alcotest.(check (list string)) "order itself is Pattern.compare order"
    (List.map Pattern.to_string (List.sort Pattern.compare (List.map pat [ "cc"; "a"; "aab"; "b" ])))
    sorted

let test_merge () =
  let master = Universe.create () in
  let m0 = Universe.intern master (pat "ab") in
  let scratch = Universe.create () in
  List.iter
    (fun s -> ignore (Universe.intern scratch (pat s)))
    [ "cc"; "ab"; "a" ];
  let remap = Universe.merge ~into:master scratch in
  Alcotest.(check int) "remap covers the scratch" 3 (Array.length remap);
  Array.iteri
    (fun i id ->
      Alcotest.(check bool) "remapped id holds the same pattern" true
        (Pattern.equal
           (Universe.pattern scratch (Pattern.Id.of_int i))
           (Universe.pattern master id)))
    remap;
  Alcotest.(check bool) "shared pattern reuses the master id" true
    (Pattern.Id.equal remap.(1) m0);
  Alcotest.(check int) "master grew by the new patterns only" 3
    (Universe.cardinal master);
  Alcotest.(check int) "scratch untouched" 3 (Universe.cardinal scratch)

let props =
  [
    qtest "universe: interning is injective (id <-> pattern)" pool_gen
      (fun pats ->
        let u = Universe.create () in
        let ids = List.map (Universe.intern u) pats in
        List.for_all2
          (fun p id -> Pattern.equal p (Universe.pattern u id))
          pats ids
        && Universe.cardinal u
           = List.length (List.sort_uniq Pattern.compare pats));
    qtest "universe: merge translation table preserves patterns"
      QCheck2.Gen.(pair pool_gen pool_gen)
      (fun (master_pats, scratch_pats) ->
        let master = Universe.create () in
        List.iter (fun p -> ignore (Universe.intern master p)) master_pats;
        let scratch = Universe.create () in
        List.iter (fun p -> ignore (Universe.intern scratch p)) scratch_pats;
        let remap = Universe.merge ~into:master scratch in
        Array.length remap = Universe.cardinal scratch
        && Array.for_all
             (fun id -> Pattern.Id.to_int id < Universe.cardinal master)
             remap
        && Array.to_list remap
           |> List.mapi (fun i id ->
                  Pattern.equal
                    (Universe.pattern scratch (Pattern.Id.of_int i))
                    (Universe.pattern master id))
           |> List.for_all Fun.id);
  ]

(* Parallel classification must assign the same ids, counts and frequency
   vectors as the sequential walk — the determinism the whole refactor
   leans on.  One pool for all seeds; domain spawning is the slow part. *)
let test_parallel_classify_determinism () =
  let dump c =
    let u = Classify.universe c in
    Classify.fold_ids
      (fun id ~count ~freq acc ->
        Printf.sprintf "%d:%s:%d:%s" (Pattern.Id.to_int id)
          (Pattern.to_string (Universe.pattern u id)) count
          (String.concat "," (List.map string_of_int (Array.to_list freq)))
        :: acc)
      c []
    |> List.rev
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun seed ->
          let params =
            { Random_dag.default_params with Random_dag.layers = 5; width = 4 }
          in
          let g = Random_dag.generate ~params ~seed () in
          let seq =
            Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g)
          in
          let par =
            Classify.compute ~pool ~span_limit:1 ~capacity:5
              (Enumerate.make_ctx g)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d: ids/counts/frequencies identical" seed)
            (dump seq) (dump par))
        [ 1; 2; 3; 4; 5 ])

let test_classify_external_universe () =
  let g = Random_dag.generate ~seed:7 () in
  let u = Universe.create () in
  let c = Classify.compute ~span_limit:1 ~capacity:5 ~universe:u (Enumerate.make_ctx g) in
  Alcotest.(check bool) "classification interned into the caller's arena" true
    (Classify.universe c == u);
  List.iter
    (fun p ->
      Alcotest.(check bool) "every classified pattern is interned" true
        (Universe.find u p <> None))
    (Classify.patterns c)

(* Interned patterns are canonical values: the walker builds each pattern
   from its sorted colors, so an id's pattern is structurally equal (under
   polymorphic [=], not just [Pattern.equal]) to the one its spelling
   parses to, whichever prefix or domain interned it first.  Selection
   compares pattern lists with [=], so this is what keeps its output the
   same at every --jobs. *)
let test_classified_patterns_canonical () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, g) ->
          let ctx = Enumerate.make_ctx g in
          List.iter
            (fun pool ->
              let u = Universe.create () in
              ignore (Classify.compute ?pool ~universe:u ~span_limit:1 ~capacity:5 ctx);
              Universe.iter
                (fun _ p ->
                  if p <> Pattern.of_string (Pattern.to_string p) then
                    Alcotest.failf "%s: %s is not built from its sorted colors" name
                      (Pattern.to_string p))
                u)
            [ None; Some pool ])
        (Mps_workloads.Suite.graphs ()))

let () =
  Alcotest.run "universe"
    [
      ( "basics",
        [
          Alcotest.test_case "intern" `Quick test_intern_basics;
          Alcotest.test_case "memoized facts" `Quick test_memoized_facts;
          Alcotest.test_case "sorted ids" `Quick test_sorted_ids;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ("properties", props);
      ( "classification",
        [
          Alcotest.test_case "jobs 1 vs 4 ids identical" `Quick
            test_parallel_classify_determinism;
          Alcotest.test_case "external universe" `Quick
            test_classify_external_universe;
          Alcotest.test_case "interned patterns are canonical" `Quick
            test_classified_patterns_canonical;
        ] );
    ]
