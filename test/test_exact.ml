(* Exact backend: the certifying branch-and-bound must agree with the
   exhaustive oracle wherever both terminate, never lose to the portfolio
   it is seeded from, be byte-identical at any --jobs (result, counters
   and ban list alike), publish a sound ban list, find the same optimum
   with and without pruning, and let ban and dominance pruning alone cut
   the 3dft search tree by at least half.

   Costing note: a set's cycles are well-defined only relative to a
   pattern order (the list scheduler breaks score ties by position), so
   both searches cost every set in its canonical order — pool patterns in
   canonical pool order, a fabricated fallback last — and the properties
   below compare against independently recomputed canonical costs. *)

module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Eval = Mps_scheduler.Eval
module Portfolio = Mps_select.Portfolio
module Exact = Mps_select.Exact
module Exhaustive = Mps_select.Exhaustive
module Select = Mps_select.Select
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Pool = Mps_exec.Pool
module Random_dag = Mps_workloads.Random_dag
module Paper_graphs = Mps_workloads.Paper_graphs

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(1 -- 1000)
let capacity = 3

(* Tiny graphs the exhaustive oracle closes comfortably: ≤ 8 nodes. *)
let tiny_graph ~seed =
  let params =
    {
      Random_dag.default_params with
      Random_dag.layers = 2 + (seed mod 2);
      width = 2;
    }
  in
  let g = Random_dag.generate ~params ~seed () in
  assert (Dfg.node_count g <= 8);
  g

let classify g = Classify.compute ~capacity (Enumerate.make_ctx g)

(* The canonical costing order the searches use, recomputed independently:
   pool members by descending size then spelling (the lattice-respecting
   pool order), foreign patterns last by spelling. *)
let canonical cls set =
  let pool =
    List.sort
      (fun p q ->
        let c = compare (Pattern.size q) (Pattern.size p) in
        if c <> 0 then c else Pattern.compare p q)
      (Classify.patterns cls)
  in
  let index_of p =
    let rec go i = function
      | [] -> None
      | q :: tl -> if Pattern.equal p q then Some i else go (i + 1) tl
    in
    go 0 pool
  in
  List.map
    (fun p ->
      match index_of p with
      | Some i -> ((0, i, ""), p)
      | None -> ((1, 0, Pattern.to_string p), p))
    set
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Exact = exhaustive: same optimal cycles on every tiny graph, under both
   priorities, and the certificate's set reproduces its claimed cycles. *)
let exact_equals_exhaustive seed =
  let g = tiny_graph ~seed in
  let cls = classify g in
  let pdef = 2 + (seed mod 2) in
  List.for_all
    (fun priority ->
      let ex = Exhaustive.search ~priority ~pdef cls in
      let ct = Exact.search ~priority ~pdef cls in
      (not ex.Exhaustive.truncated)
      && ct.Exact.proven
      && ct.Exact.optimal_cycles = ex.Exhaustive.best_cycles
      && (ct.Exact.optimal_cycles = max_int
         || Eval.cycles ~priority (Eval.make g) ct.Exact.optimal
            = ct.Exact.optimal_cycles))
    [ Eval.F1; Eval.F2 ]

(* Seeded with every portfolio set, exact can only tie or beat each of
   them (canonical costing). *)
let portfolio_never_beats_exact seed =
  let g = tiny_graph ~seed in
  let cls = classify g in
  let pdef = 3 in
  let o = Portfolio.run ~pdef cls in
  let sets =
    List.filter_map
      (fun e ->
        if e.Portfolio.cycles = max_int then None else Some e.Portfolio.patterns)
      o.Portfolio.all
  in
  let ct = Exact.search ~seeds:sets ~pdef cls in
  let ev = Eval.make g in
  List.for_all
    (fun set ->
      match Eval.cycles ev (canonical cls set) with
      | c -> ct.Exact.optimal_cycles <= c
      | exception Eval.Unschedulable _ -> true)
    sets

let fingerprint ct =
  let pats ps = String.concat "," (List.map Pattern.to_string ps) in
  let entry e =
    Printf.sprintf "%s=%s"
      (pats e.Exact.banned)
      (match e.Exact.bound with
      | Exact.Infeasible -> "inf"
      | Exact.Cost c -> string_of_int c)
  in
  let s = ct.Exact.stats in
  Printf.sprintf "%s/%d/%d/%d/%d/%d/%d/%d/%b/%s" (pats ct.Exact.optimal)
    ct.Exact.optimal_cycles s.Exact.nodes_visited s.Exact.pruned_span
    s.Exact.pruned_color s.Exact.pruned_ban s.Exact.pruned_dominance
    s.Exact.evaluated ct.Exact.proven
    (String.concat ";" (List.map entry ct.Exact.bans))

(* The whole certificate — optimal set, counters, ban list — is
   byte-identical between the sequential path and a 4-worker pool. *)
let jobs_identical seed =
  let g = tiny_graph ~seed in
  let cls = classify g in
  let seq = fingerprint (Exact.search ~pdef:3 cls) in
  Pool.with_pool ~jobs:4 (fun pool ->
      fingerprint (Exact.search ~pool ~pdef:3 cls) = seq)

(* Ban-list soundness: an Infeasible entry really cannot schedule the
   graph; a Cost entry reproduces its bound verbatim and never beats the
   certified optimum — no banned set is feasible-and-better. *)
let ban_list_sound seed =
  let g = tiny_graph ~seed in
  let cls = classify g in
  let ct = Exact.search ~pdef:3 cls in
  let ev = Eval.make g in
  ct.Exact.bans <> []
  && List.for_all
       (fun e ->
         match e.Exact.bound with
         | Exact.Infeasible -> (
             match Eval.cycles ev e.Exact.banned with
             | _ -> false
             | exception Eval.Unschedulable _ -> true)
         | Exact.Cost c ->
             Eval.cycles ev e.Exact.banned = c
             && c >= ct.Exact.optimal_cycles)
       ct.Exact.bans

(* Pruning is sound: every rule on finds the same optimum as pure
   enumeration, while visiting no more nodes. *)
let pruning_preserves_optimum seed =
  let g = tiny_graph ~seed in
  let cls = classify g in
  let a = Exact.search ~pdef:3 cls in
  let b = Exact.search ~pruning:Exact.no_pruning ~pdef:3 cls in
  a.Exact.optimal_cycles = b.Exact.optimal_cycles
  && a.Exact.stats.Exact.nodes_visited <= b.Exact.stats.Exact.nodes_visited

(* Pruning power on 3dft (span 1, Pdef 4): ban and dominance pruning alone
   visit at most half the nodes of the unpruned tree, every subset of at
   most four of the 54 pool patterns (342,541 nodes, root included, so
   the unpruned search itself need not run), and prove the same optimum
   as full pruning seeded with the Eq. 8/9 heuristic, which that optimum
   never loses to (gap >= 0). *)
let pruning_power_3dft () =
  let g = Paper_graphs.fig2_3dft () in
  let cls =
    Classify.compute ~span_limit:1 ~capacity:Paper_graphs.montium_capacity
      (Enumerate.make_ctx g)
  in
  let pool = Classify.pattern_count cls in
  Alcotest.(check int) "pool size" 54 pool;
  let rec choose n k = if k = 0 then 1 else choose n (k - 1) * (n - k + 1) / k in
  let unpruned =
    List.fold_left (fun acc k -> acc + choose pool k) 0 [ 0; 1; 2; 3; 4 ]
  in
  let heuristic = Select.select ~pdef:4 cls in
  let heuristic_cycles =
    Eval.cycles (Eval.make g) (Exact.canonical_order cls heuristic)
  in
  let full = Exact.search ~seeds:[ heuristic ] ~pdef:4 cls in
  let ban_dom =
    Exact.search
      ~pruning:{ Exact.no_pruning with prune_ban = true; prune_dominance = true }
      ~pdef:4 cls
  in
  Alcotest.(check bool) "both proven" true
    (full.Exact.proven && ban_dom.Exact.proven);
  Alcotest.(check int) "full pruning optimum" 5 full.Exact.optimal_cycles;
  Alcotest.(check bool) "gap >= 0" true
    (heuristic_cycles >= full.Exact.optimal_cycles);
  Alcotest.(check int) "ban+dominance optimum" 5 ban_dom.Exact.optimal_cycles;
  let visited = ban_dom.Exact.stats.Exact.nodes_visited in
  if 2 * visited > unpruned then
    Alcotest.failf "ban+dominance visited %d of %d unpruned nodes, over half"
      visited unpruned

let () =
  Alcotest.run "exact backend"
    [
      ( "oracle",
        [
          qtest "exact = exhaustive on tiny graphs, F1 and F2" seed_gen
            exact_equals_exhaustive;
          qtest "pruning preserves the optimum" seed_gen
            pruning_preserves_optimum;
          Alcotest.test_case "3dft: ban+dominance visit at most half the tree"
            `Quick pruning_power_3dft;
        ] );
      ( "portfolio",
        [
          qtest "no portfolio strategy beats seeded exact" seed_gen
            portfolio_never_beats_exact;
        ] );
      ( "determinism",
        [
          qtest ~count:10 "certificate identical at --jobs 1 and 4" seed_gen
            jobs_identical;
        ] );
      ( "ban list",
        [ qtest "no banned set is feasible-and-better" seed_gen ban_list_sound ] );
    ]
