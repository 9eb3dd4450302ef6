(* Auto: per-graph strategy auto-selection must be transparent and honest.

   Contracts under test: feature extraction is deterministic and identical
   whether the analyses are recomputed or reused from an Eval context; an
   auto decision is always some portfolio backend's {e exact} result (same
   pattern list, same cycles) with non-negative regret against the full
   portfolio, and its reported cycles replay exactly on a fresh evaluation
   context; the compiled-in table validates while the validator rejects
   every malformed shape; fitting is deterministic, produces valid tables
   whose training examples all match some rule, and fits thresholds that
   print exactly; and a serve session answering auto requests is
   byte-identical between --jobs 1 and 4. *)

module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Features = Mps_select.Features
module Auto = Mps_select.Auto
module Portfolio = Mps_select.Portfolio
module Suite = Mps_workloads.Suite
module Random_dag = Mps_workloads.Random_dag
module Pool = Mps_exec.Pool
module Session = Mps_serve.Session
module Server = Mps_serve.Server

let capacity = 5

let random_graph ~seed =
  let params =
    {
      Random_dag.default_params with
      Random_dag.layers = 3 + (seed mod 4);
      width = 2 + (seed mod 3);
    }
  in
  Random_dag.generate ~params ~seed ()

let classify ?pool g =
  Classify.compute ?pool ~span_limit:1 ~capacity (Enumerate.make_ctx g)

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(1 -- 1000)

(* --- features ---------------------------------------------------------- *)

(* Extraction is a pure function of the graph: repeated extraction, and
   extraction through an Eval context's cached analyses, give structurally
   identical vectors; the named view agrees with the record. *)
let features_deterministic seed =
  let g = random_graph ~seed in
  let f1 = Features.extract g in
  let f2 = Features.extract g in
  let ev = Eval.make g in
  let f3 =
    Features.extract_with ~levels:(Eval.levels ev)
      ~reachability:(Eval.reachability ev) g
  in
  let assoc = Features.to_assoc f1 in
  f1 = f2 && f1 = f3
  && List.map fst assoc = Features.names
  && List.for_all (fun (n, v) -> Features.get f1 n = Some v) assoc
  && Features.get f1 "no_such_feature" = None
  && f1.Features.nodes = Dfg.node_count g
  && f1.Features.edges = Dfg.edge_count g
  && f1.Features.parallelism >= 0.
  && f1.Features.parallelism <= 1.
  && f1.Features.antichain_log2 >= 0.

(* --- the decision ------------------------------------------------------ *)

(* Whatever rule fires, the outcome is one portfolio entry verbatim: the
   same backend name, the same pattern list, the same cycles — never a
   novel set. *)
let auto_is_a_portfolio_member seed =
  let g = random_graph ~seed in
  let cls = classify g in
  let o = Auto.select ~pdef:3 cls in
  let p = Portfolio.run ~pdef:3 cls in
  match
    List.find_opt
      (fun (e : Portfolio.entry) ->
        String.equal e.Portfolio.strategy o.Auto.backend)
      p.Portfolio.all
  with
  | None -> false
  | Some e ->
      List.equal Pattern.equal e.Portfolio.patterns o.Auto.patterns
      && e.Portfolio.cycles = o.Auto.cycles

(* Regret accounting: the portfolio's best is a lower bound on the auto
   cycles, and the reported cycles are not just trusted — they replay
   exactly on a fresh context (the brute-force re-evaluation). *)
let regret_is_honest seed =
  let g = random_graph ~seed in
  let cls = classify g in
  let o = Auto.select ~pdef:3 cls in
  let p = Portfolio.run ~pdef:3 cls in
  let best =
    List.fold_left
      (fun acc (e : Portfolio.entry) -> min acc e.Portfolio.cycles)
      max_int p.Portfolio.all
  in
  o.Auto.cycles >= best
  && (o.Auto.cycles = max_int
     || Eval.cycles (Eval.make g) o.Auto.patterns = o.Auto.cycles)
  && o.Auto.rule_index >= 0
  && o.Auto.rule_index < List.length Auto.builtin_rules

(* The decision itself only reads the feature vector, so handing in a
   pre-extracted copy (the serve session's cache) changes nothing. *)
let cached_features_identical seed =
  let g = random_graph ~seed in
  let cls = classify g in
  let fv = Features.extract g in
  let o1 = Auto.select ~pdef:3 cls in
  let o2 = Auto.select ~features:fv ~pdef:3 cls in
  o1.Auto.backend = o2.Auto.backend
  && o1.Auto.rule_index = o2.Auto.rule_index
  && List.equal Pattern.equal o1.Auto.patterns o2.Auto.patterns
  && o1.Auto.cycles = o2.Auto.cycles

(* A classification computed in parallel feeds the same decision: auto
   inherits the classify determinism contract. *)
let jobs_identical_decision seed =
  let g = random_graph ~seed in
  let o1 = Auto.select ~pdef:3 (classify g) in
  let o4 =
    Pool.with_pool ~jobs:4 (fun pool -> Auto.select ~pdef:3 (classify ~pool g))
  in
  o1.Auto.backend = o4.Auto.backend
  && List.equal Pattern.equal o1.Auto.patterns o4.Auto.patterns
  && o1.Auto.cycles = o4.Auto.cycles

(* --- rule tables --------------------------------------------------------- *)

let builtin_validates () =
  Alcotest.(check bool) "builtin validates" true
    (Auto.validate Auto.builtin_rules = Ok Auto.builtin_rules)

let rejects () =
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected rejection" what
  in
  expect_error "empty table" (Auto.validate []);
  expect_error "conditional last rule"
    (Auto.validate
       [
         {
           Auto.conds =
             [ { Auto.feature = "nodes"; op = Auto.Le; threshold = 5. } ];
           backend = "eq8";
           provenance = "";
         };
       ]);
  expect_error "non-terminal unconditional rule"
    (Auto.validate
       [
         { Auto.conds = []; backend = "eq8"; provenance = "" };
         { Auto.conds = []; backend = "beam"; provenance = "" };
       ]);
  expect_error "unknown feature"
    (Auto.validate
       [
         {
           Auto.conds =
             [ { Auto.feature = "zorp"; op = Auto.Le; threshold = 1. } ];
           backend = "eq8";
           provenance = "";
         };
         { Auto.conds = []; backend = "eq8"; provenance = "" };
       ]);
  expect_error "unknown backend"
    (Auto.validate
       [ { Auto.conds = []; backend = "oracle"; provenance = "" } ])

let strategy_spelling () =
  let is_paper = function Ok Auto.Paper -> true | _ -> false in
  Alcotest.(check bool) "eq8 is Paper" true
    (is_paper (Auto.strategy_of_string "eq8"));
  Alcotest.(check bool) "paper is Paper" true
    (is_paper (Auto.strategy_of_string "paper"));
  (match Auto.strategy_of_string "auto" with
  | Ok (Auto.Auto r) ->
      Alcotest.(check bool) "auto uses builtin" true (r = Auto.builtin_rules)
  | _ -> Alcotest.fail "auto should parse to Auto builtin_rules");
  match Auto.strategy_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus strategy should be rejected"

(* --- fitting ------------------------------------------------------------ *)

(* Examples from a slice of the real corpus, exactly the way the bench
   builds them: every backend costed by the portfolio. *)
let corpus_examples () =
  List.filter_map
    (fun name ->
      Option.map
        (fun (e : Suite.entry) ->
          let g = e.Suite.build () in
          let p = Portfolio.run ~pdef:4 (classify g) in
          {
            Auto.name;
            example_features = Features.extract g;
            costs =
              List.map
                (fun (en : Portfolio.entry) ->
                  (en.Portfolio.strategy, en.Portfolio.cycles))
                p.Portfolio.all;
          })
        (Suite.find name))
    [ "fig4"; "mm222"; "adv-mono"; "adv-rainbow"; "horner16"; "iir4" ]

let fit_is_valid_and_deterministic () =
  let examples = corpus_examples () in
  let r1 = Auto.fit examples in
  let r2 = Auto.fit examples in
  Alcotest.(check bool) "deterministic" true (r1 = r2);
  Alcotest.(check bool) "validates" true (Auto.validate r1 = Ok r1);
  (* The terminal default guarantees every example — trained on or not —
     matches some rule; spot-check by dispatching each training example. *)
  List.iter
    (fun (ex : Auto.example) ->
      let matched =
        List.exists
          (fun (r : Auto.rule) -> List.mem r.Auto.backend (List.map fst ex.Auto.costs))
          r1
      in
      Alcotest.(check bool)
        (ex.Auto.name ^ " dispatches to a known backend")
        true matched)
    examples

(* [bench --fit-selector] prints thresholds at 12 significant digits and
   gates on its refit being structurally equal to the pasted
   [builtin_rules], so the fit must produce thresholds that survive that
   printing.  The midpoint of 0.1 and 0.2 is 0.15000000000000002 in
   binary, which prints as "0.15". *)
let fit_thresholds_print_exactly () =
  let base = Features.extract (Mps_workloads.Paper_graphs.fig4_small ()) in
  let example name share best =
    {
      Auto.name;
      example_features = { base with Features.max_color_share = share };
      costs =
        List.map
          (fun b -> (b, if b = best then 10 else 20))
          Portfolio.strategy_names;
    }
  in
  match Auto.fit [ example "low" 0.1 "eq8"; example "high" 0.2 "beam" ] with
  | [ { Auto.conds = [ c ]; backend = "eq8"; _ }; { Auto.conds = []; _ } ] ->
      Alcotest.(check bool) "threshold is the printed 0.15" true
        (c.Auto.threshold = 0.15)
  | _ -> Alcotest.fail "expected one split on max_color_share, then a default"

let fit_rejects_empty () =
  match Auto.fit [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fit [] should raise Invalid_argument"

(* --- serve ------------------------------------------------------------- *)

(* The full response stream for auto requests — select and pipeline, cold
   and warm — must be byte-identical whatever the pool size.  The draw
   skips dct8, the one base graph over the 5M-antichain budget: there the
   parallel walk aborts and reruns sequentially, several seconds a draw.
   Jobs-invariance of a budget-truncated classification is covered by
   test_parallel's "classify: budget truncation identical for jobs
   1,2,4,8". *)
let serve_auto_jobs_identical seed =
  let name =
    let corpus =
      List.filter
        (fun (e : Suite.entry) -> e.Suite.name <> "dct8")
        (Suite.corpus ())
    in
    (List.nth corpus (seed mod List.length corpus)).Suite.name
  in
  let line cmd =
    Printf.sprintf
      "{\"id\":1,\"cmd\":\"%s\",\"graph\":%S,\"options\":{\"strategy\":\"auto\"}}"
      cmd name
  in
  let lines = [ line "select"; line "pipeline"; line "select" ] in
  let stream pool =
    let sess = Session.create ?pool () in
    String.concat "\n" (List.map (Server.handle_line sess) lines)
  in
  let seq = stream None in
  let par = Pool.with_pool ~jobs:4 (fun p -> stream (Some p)) in
  if seq <> par then
    QCheck2.Test.fail_reportf "auto serve responses differ between jobs 1 and 4";
  (* The auto evidence is on the wire: backend and rule fields present. *)
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  has seq "\"auto\":" && has seq "\"backend\":"
  && not (has seq "\"truncated\":true")

let () =
  Alcotest.run "auto selection"
    [
      ( "features",
        [
          qtest "extraction is deterministic; named view agrees" seed_gen
            features_deterministic;
        ] );
      ( "decision",
        [
          qtest "auto returns a portfolio entry verbatim" seed_gen
            auto_is_a_portfolio_member;
          qtest "regret is non-negative and cycles replay exactly" seed_gen
            regret_is_honest;
          qtest "a cached feature vector changes nothing" seed_gen
            cached_features_identical;
          qtest ~count:8 "decision identical from a jobs-4 classification"
            seed_gen jobs_identical_decision;
        ] );
      ( "rule tables",
        [
          Alcotest.test_case "builtin table validates" `Quick builtin_validates;
          Alcotest.test_case "validator rejects malformed tables" `Quick
            rejects;
          Alcotest.test_case "strategy spelling" `Quick strategy_spelling;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "fit is deterministic and valid" `Quick
            fit_is_valid_and_deterministic;
          Alcotest.test_case "fit rejects an empty corpus" `Quick
            fit_rejects_empty;
          Alcotest.test_case "fitted thresholds print exactly" `Quick
            fit_thresholds_print_exactly;
        ] );
      ( "serve",
        [
          qtest ~count:6 "auto responses identical at jobs 1 and 4" seed_gen
            serve_auto_jobs_identical;
        ] );
    ]
