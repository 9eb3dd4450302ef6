(* Antichain engine: Table 4 (patterns and antichains of the Fig. 4 graph),
   Table 6 (node frequencies), Theorem 1, and enumeration completeness
   against a brute-force reference on random DAGs. *)

module Color = Mps_dfg.Color
module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Pattern = Mps_pattern.Pattern
module Antichain = Mps_antichain.Antichain
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Schedule = Mps_scheduler.Schedule
module Mp = Mps_scheduler.Multi_pattern
module Random_dag = Mps_workloads.Random_dag
module Pg = Mps_workloads.Paper_graphs

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let small_dag_gen =
  let params = { Random_dag.default_params with layers = 4; width = 4 } in
  QCheck2.Gen.(map (fun seed -> Random_dag.generate ~params ~seed ()) (0 -- 5_000))

let names g a = List.map (Dfg.name g) (Antichain.nodes a)

(* --- antichain type --- *)

let test_of_nodes_checks () =
  let g = Pg.fig4_small () in
  let r = Reachability.compute g in
  let at n = Dfg.find g n in
  let a = Antichain.of_nodes r [ at "a3"; at "a1" ] in
  Alcotest.(check (list string)) "sorted" [ "a1"; "a3" ] (names g a);
  Alcotest.check_raises "comparable pair rejected"
    (Invalid_argument "Antichain.of_nodes: nodes are not pairwise parallelizable")
    (fun () -> ignore (Antichain.of_nodes r [ at "a1"; at "a2" ]));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Antichain.of_nodes: duplicate node") (fun () ->
      ignore (Antichain.of_nodes r [ at "a1"; at "a1" ]))

let test_executable_and_pattern () =
  let g = Pg.fig2_3dft () in
  let r = Reachability.compute g in
  let at n = Dfg.find g n in
  let a1 = Antichain.of_nodes r (List.map at [ "b1"; "a4"; "b3"; "b6"; "a16"; "c10" ]) in
  Alcotest.(check bool) "size-6 not executable at C=5" false
    (Antichain.is_executable ~capacity:5 a1);
  let a3 = Antichain.of_nodes r (List.map at [ "b1"; "a4"; "b3"; "b6"; "a16" ]) in
  Alcotest.(check bool) "size-5 executable" true (Antichain.is_executable ~capacity:5 a3);
  Alcotest.(check string) "pattern of A3" "aabbb"
    (Pattern.to_string (Antichain.pattern g a3))

(* --- Table 4 --- *)

let test_table4 () =
  let g = Pg.fig4_small () in
  let ctx = Enumerate.make_ctx g in
  let cls = Classify.compute ~keep_antichains:true ~capacity:5 ctx in
  Alcotest.(check (list string)) "exactly four patterns"
    [ "a"; "b"; "aa"; "bb" ]
    (List.map Pattern.to_string
       (List.sort
          (fun p q ->
            match compare (Pattern.size p) (Pattern.size q) with
            | 0 -> Pattern.compare p q
            | c -> c)
          (Classify.patterns cls)));
  let antichains p =
    List.map (names g) (Classify.antichains cls (Pattern.of_string p))
  in
  Alcotest.(check (list (list string))) "p1={a}"
    [ [ "a1" ]; [ "a2" ]; [ "a3" ] ]
    (antichains "a");
  Alcotest.(check (list (list string))) "p2={b}" [ [ "b4" ]; [ "b5" ] ] (antichains "b");
  Alcotest.(check (list (list string))) "p3={aa}"
    [ [ "a1"; "a3" ]; [ "a2"; "a3" ] ]
    (antichains "aa");
  Alcotest.(check (list (list string))) "p4={bb}" [ [ "b4"; "b5" ] ] (antichains "bb");
  Alcotest.(check int) "8 antichains total" 8 (Classify.total_antichains cls)

(* --- Table 6 --- *)

let test_table6 () =
  let g = Pg.fig4_small () in
  let cls = Classify.compute ~capacity:5 (Enumerate.make_ctx g) in
  let freq p = Classify.node_frequency cls (Pattern.of_string p) in
  let row p =
    List.map (fun n -> (Classify.node_frequency cls (Pattern.of_string p)).(Dfg.find g n))
      [ "a1"; "a2"; "a3"; "b4"; "b5" ]
  in
  ignore freq;
  Alcotest.(check (list int)) "h(p1)" [ 1; 1; 1; 0; 0 ] (row "a");
  Alcotest.(check (list int)) "h(p2)" [ 0; 0; 0; 1; 1 ] (row "b");
  Alcotest.(check (list int)) "h(p3)" [ 1; 1; 2; 0; 0 ] (row "aa");
  Alcotest.(check (list int)) "h(p4)" [ 0; 0; 0; 1; 1 ] (row "bb");
  (* h(p, n) for an absent pattern is all zero. *)
  Alcotest.(check (list int)) "absent pattern" [ 0; 0; 0; 0; 0 ] (row "ab")

(* --- enumeration semantics --- *)

let brute_force g ~max_size ~span_limit =
  (* All subsets of size 1..max_size that are antichains within the span
     limit, counted.  Exponential; only for tiny graphs. *)
  let r = Reachability.compute g in
  let lv = Levels.compute g in
  let n = Dfg.node_count g in
  let count = ref 0 in
  let rec go i chosen size =
    if size > 0 then begin
      let ok =
        Reachability.is_antichain r chosen
        && match span_limit with None -> true | Some l -> Levels.span lv chosen <= l
      in
      if ok then incr count
    end;
    if size < max_size then
      for j = i to n - 1 do
        go (j + 1) (j :: chosen) (size + 1)
      done
  in
  (* enumerate all subsets: start with empty, add increasing ids *)
  let rec start i =
    if i < n then begin
      go (i + 1) [ i ] 1;
      start (i + 1)
    end
  in
  (* count singletons and their supersets via go *)
  count := 0;
  start 0;
  !count

let test_enumerate_args () =
  let ctx = Enumerate.make_ctx (Pg.fig4_small ()) in
  Alcotest.check_raises "max_size 0"
    (Invalid_argument "Enumerate.iter: max_size must be >= 1") (fun () ->
      Enumerate.iter ~max_size:0 ctx ~f:ignore);
  Alcotest.check_raises "negative span"
    (Invalid_argument "Enumerate.iter: negative span_limit") (fun () ->
      Enumerate.iter ~span_limit:(-1) ~max_size:2 ctx ~f:ignore)

(* The walk is depth first in increasing id order, so consecutive
   antichains strictly increase as id lists ([List.compare]: a prefix
   before its extensions) — the order a budget cuts. *)
let check_increasing ?span_limit ?budget ~max_size ctx =
  let r = Enumerate.ctx_reachability ctx in
  let prev = ref [] and visits = ref [] in
  (match
     Enumerate.iter ?span_limit ?budget ~max_size ctx ~f:(fun a ->
         let nodes = Antichain.nodes a in
         if not (Reachability.is_antichain r nodes) then
           Alcotest.failf "not an antichain: %s"
             (String.concat "," (List.map string_of_int nodes));
         if !prev <> [] && List.compare Int.compare !prev nodes >= 0 then
           Alcotest.failf "out of order: %s after %s"
             (String.concat "," (List.map string_of_int nodes))
             (String.concat "," (List.map string_of_int !prev));
         prev := nodes;
         visits := nodes :: !visits)
   with
  | () | (exception Enumerate.Budget_exhausted) -> ());
  List.rev !visits

let test_enumerate_lex_order_and_validity () =
  List.iter
    (fun name ->
      match Mps_workloads.Suite.find name with
      | Some e -> ignore (check_increasing ~max_size:5 (Enumerate.make_ctx (e.build ())))
      | None -> Alcotest.failf "no corpus graph %s" name)
    [ "3dft"; "fig4"; "w5dft"; "iir4" ]

let test_theorem1_on_schedule () =
  (* Schedule an antichain into one cycle (greedily around it) and confirm
     the resulting length respects the Theorem 1 bound. *)
  let g = Pg.fig2_3dft () in
  let ctx = Enumerate.make_ctx g in
  let lv = Enumerate.ctx_levels ctx in
  let r = Enumerate.ctx_reachability ctx in
  let at n = Dfg.find g n in
  (* {a24, b3}: span 1, bound 6. *)
  let a = Antichain.of_nodes r [ at "a24"; at "b3" ] in
  Alcotest.(check int) "bound" 6 (Antichain.span_bound lv a);
  (* Construct the best schedule that co-schedules them: a24 cannot run
     before cycle 1 (its predecessor a4 needs cycle 0), so b3 is dragged to
     cycle 1 and its follower chain a8→c14→a20→a23 shifts behind it.  The
     earliest-start forward pass under that one forced constraint is a valid
     schedule and must hit exactly the Theorem 1 bound. *)
  let n = Dfg.node_count g in
  let forced = max (Levels.asap lv (at "a24")) (Levels.asap lv (at "b3")) in
  let cycle_of = Array.make n 0 in
  List.iter
    (fun i ->
      let floor_c = if i = at "a24" || i = at "b3" then forced else 0 in
      let by_preds =
        List.fold_left (fun acc p -> max acc (cycle_of.(p) + 1)) 0 (Dfg.preds g i)
      in
      cycle_of.(i) <- max floor_c by_preds)
    (Mps_dfg.Topo.order g);
  let s = Schedule.of_cycles g cycle_of in
  (match Schedule.validate ~capacity:max_int g s with
  | [] -> ()
  | v :: _ -> Alcotest.failf "violation: %a" (Schedule.pp_violation g) v);
  Alcotest.(check int) "co-scheduled" (Schedule.cycle_of s (at "a24"))
    (Schedule.cycle_of s (at "b3"));
  Alcotest.(check int) "length equals the theorem 1 bound" 6 (Schedule.cycles s)

(* How many antichains [Enumerate.iter] visits under the given limits. *)
let iter_count ?span_limit ~max_size ctx =
  let c = ref 0 in
  Enumerate.iter ?span_limit ~max_size ctx ~f:(fun _ -> incr c);
  !c

let enum_props =
  [
    qtest "enumeration count = brute force (no span limit)" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        iter_count ~max_size:3 ctx = brute_force g ~max_size:3 ~span_limit:None);
    qtest "enumeration count = brute force (span 1)" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        iter_count ~span_limit:1 ~max_size:3 ctx
        = brute_force g ~max_size:3 ~span_limit:(Some 1));
    qtest "visits strictly increase; a budget keeps their prefix"
      QCheck2.Gen.(pair small_dag_gen (0 -- 300))
      (fun (g, budget) ->
        let ctx = Enumerate.make_ctx g in
        let all = check_increasing ~span_limit:1 ~max_size:4 ctx in
        let cut = check_increasing ~span_limit:1 ~budget ~max_size:4 ctx in
        cut = List.filteri (fun i _ -> i < budget) all);
    qtest "count matrix rows are monotone in span" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let m = Enumerate.count_matrix ~max_size:4 ~max_span:3 ctx in
        let ok = ref true in
        for l = 1 to 3 do
          for s = 1 to 4 do
            if m.(l).(s) < m.(l - 1).(s) then ok := false
          done
        done;
        !ok);
    qtest "classification partitions the enumeration" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let cls = Classify.compute ~capacity:4 ctx in
        let by_pattern =
          Classify.fold (fun _ ~count ~freq:_ acc -> acc + count) cls 0
        in
        by_pattern = iter_count ~max_size:4 ctx
        && Classify.total_antichains cls = by_pattern);
    qtest "node frequencies sum to antichain memberships" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let cls = Classify.compute ~capacity:3 ctx in
        (* Sum over patterns and nodes of h = sum of antichain sizes. *)
        let freq_total =
          Classify.fold
            (fun _ ~count:_ ~freq acc -> acc + Array.fold_left ( + ) 0 freq)
            cls 0
        in
        let size_total = ref 0 in
        Enumerate.iter ~max_size:3 ctx ~f:(fun a ->
            size_total := !size_total + Antichain.size a);
        freq_total = !size_total);
  ]

(* --- differential: the walker against the list-based reference ---

   [Classify.compute] steps pattern ids per color, takes the last level in
   bulk and fans roots out over a pool; [Classify_ref] classifies every
   antichain on its own.  Both must agree on everything a classification
   exposes: counts, h vectors, the universe's ids in order (a pattern
   interned for an antichain the budget cut shows up as a stray row), the
   kept antichains in order, the total and the truncation flag. *)

let spans = [ None; Some 0; Some 1; Some 2 ]
let budgets = [ None; Some 0; Some 1; Some 7; Some 50; Some 500 ]

(* The reference is computed with kept antichains; a classification that
   keeps none must match it with those lists emptied. *)
let without_kept r =
  let drop (s, c, h, _) = (s, c, h, []) in
  { r with Classify_ref.rows = List.map drop r.Classify_ref.rows }

let agrees pool ?span_limit ?budget ~capacity ctx =
  let expect =
    Classify_ref.compute ?span_limit ?budget ~keep_antichains:true ~capacity ctx
  in
  List.for_all
    (fun (pool, keep_antichains) ->
      Classify_ref.of_classify
        (Classify.compute ?pool ?span_limit ?budget ~keep_antichains ~capacity ctx)
      = if keep_antichains then expect else without_kept expect)
    [ (None, true); (None, false); (Some pool, true); (Some pool, false) ]

let shaped_dag_gen =
  (* The shapes test_parallel draws: 4-6 layers of width 3-5. *)
  QCheck2.Gen.(
    map
      (fun seed ->
        let layers = 4 + (seed mod 3) and width = 3 + (seed mod 3) in
        let params = { Random_dag.default_params with layers; width } in
        Random_dag.generate ~params ~seed ())
      (1 -- 1000))

let test_differential_random () =
  let gen =
    QCheck2.Gen.(
      tup4
        (oneof [ small_dag_gen; shaped_dag_gen ])
        (1 -- 5) (oneofl spans) (oneofl budgets))
  in
  Mps_exec.Pool.with_pool ~jobs:2 (fun pool ->
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:300 ~name:"classify = reference" gen
           (fun (g, capacity, span_limit, budget) ->
             agrees pool ?span_limit ?budget ~capacity (Enumerate.make_ctx g))))

(* Every corpus graph of at most 80 nodes under the whole settings grid; an
   unbudgeted setting only where the reference stays quick. *)
let test_differential_corpus () =
  Mps_exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, g) ->
          let ctx = Enumerate.make_ctx g in
          for capacity = 1 to 5 do
            List.iter
              (fun span_limit ->
                List.iter
                  (fun budget ->
                    let small () =
                      Classify.total_antichains
                        (Classify.compute ?span_limit ~capacity ctx)
                      <= 20_000
                    in
                    if (budget <> None || small ())
                       && not (agrees pool ?span_limit ?budget ~capacity ctx)
                    then
                      Alcotest.failf
                        "%s: C %d, span %s, budget %s differs from the reference"
                        name capacity
                        (match span_limit with None -> "none" | Some l -> string_of_int l)
                        (match budget with None -> "none" | Some b -> string_of_int b))
                  budgets)
              spans
          done)
        (List.filter
           (fun (_, g) -> Dfg.node_count g <= 80)
           (Mps_workloads.Suite.graphs ())))

let () =
  Alcotest.run "antichain"
    [
      ( "antichain",
        [
          Alcotest.test_case "of_nodes validation" `Quick test_of_nodes_checks;
          Alcotest.test_case "executable and pattern" `Quick test_executable_and_pattern;
        ] );
      ( "paper-tables",
        [
          Alcotest.test_case "table 4 exact" `Quick test_table4;
          Alcotest.test_case "table 6 exact" `Quick test_table6;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "argument validation" `Quick test_enumerate_args;
          Alcotest.test_case "validity of emitted sets" `Quick
            test_enumerate_lex_order_and_validity;
          Alcotest.test_case "theorem 1 on real schedules" `Quick
            test_theorem1_on_schedule;
        ]
        @ enum_props );
      ( "differential",
        [
          Alcotest.test_case "random DAGs, every setting" `Quick
            test_differential_random;
          Alcotest.test_case "corpus graphs, every setting" `Quick
            test_differential_corpus;
        ] );
    ]
