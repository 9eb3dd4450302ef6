(* Determinism of the domain-parallel execution paths (ISSUE 1).

   The contract of Mps_exec is not "fast" but "identical": for any random
   DFG and any jobs in {1,2,4,8}, parallel antichain enumeration,
   classification, portfolio selection, and the full pipeline must return
   results indistinguishable from the sequential path — element for
   element, order included.  Speed is a property of the host; determinism
   is a property of the code, so it is what the test suite pins down. *)

module Pool = Mps_exec.Pool
module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Enumerate = Mps_antichain.Enumerate
module Antichain = Mps_antichain.Antichain
module Classify = Mps_antichain.Classify
module Portfolio = Mps_select.Portfolio
module Random_dag = Mps_workloads.Random_dag

let jobs_values = [ 1; 2; 4; 8 ]
let capacity = 5

let random_graph ~seed =
  let params =
    {
      Random_dag.default_params with
      Random_dag.layers = 4 + (seed mod 3);
      width = 3 + (seed mod 3);
    }
  in
  Random_dag.generate ~params ~seed ()

(* One comparable snapshot of a classification. *)
let classification_fingerprint cls =
  ( Classify.total_antichains cls,
    Classify.truncated cls,
    List.map
      (fun p ->
        ( Pattern.to_string p,
          Classify.count cls p,
          Array.to_list (Classify.node_frequency cls p),
          List.map Antichain.nodes (Classify.antichains cls p) ))
      (Classify.patterns cls) )

let portfolio_fingerprint o =
  List.map
    (fun e ->
      ( e.Portfolio.strategy,
        List.map Pattern.to_string e.Portfolio.patterns,
        e.Portfolio.cycles ))
    o.Portfolio.all

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(1 -- 1000)

let enumeration_deterministic seed =
  let g = random_graph ~seed in
  let ctx = Enumerate.make_ctx g in
  let seq_matrix = Enumerate.count_matrix ~max_size:capacity ~max_span:3 ctx in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Enumerate.count_matrix ~pool ~max_size:capacity ~max_span:3 ctx
          = seq_matrix))
    jobs_values

let classification_deterministic seed =
  let g = random_graph ~seed in
  let ctx = Enumerate.make_ctx g in
  let seq =
    classification_fingerprint
      (Classify.compute ~keep_antichains:true ~capacity ctx)
  in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          classification_fingerprint
            (Classify.compute ~pool ~keep_antichains:true ~capacity ctx)
          = seq))
    jobs_values

let budgeted_classification_deterministic (seed, budget) =
  (* The budget path must agree with sequential truncation exactly, both
     when the budget bites (parallel walk aborts and re-runs sequentially)
     and when it does not (parallel result is returned as-is). *)
  let g = random_graph ~seed in
  let ctx = Enumerate.make_ctx g in
  let seq =
    classification_fingerprint
      (Classify.compute ~budget ~keep_antichains:true ~capacity ctx)
  in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          classification_fingerprint
            (Classify.compute ~pool ~budget ~keep_antichains:true ~capacity ctx)
          = seq))
    jobs_values

let portfolio_deterministic seed =
  let g = random_graph ~seed in
  let cls = Classify.compute ~span_limit:1 ~capacity (Enumerate.make_ctx g) in
  let seq = portfolio_fingerprint (Portfolio.run ~pdef:3 cls) in
  List.for_all
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          portfolio_fingerprint (Portfolio.run ~pool ~pdef:3 cls) = seq))
    jobs_values

let pipeline_deterministic seed =
  let g = random_graph ~seed in
  let seq = Core.Pipeline.run g in
  List.for_all
    (fun jobs ->
      let par = Pool.with_pool ~jobs (fun pool -> Core.Pipeline.run ~pool g) in
      let schedule_cycles t =
        List.init (Dfg.node_count g) (fun i ->
            Mps_scheduler.Schedule.cycle_of t.Core.Pipeline.schedule i)
      in
      par.Core.Pipeline.patterns = seq.Core.Pipeline.patterns
      && par.Core.Pipeline.cycles = seq.Core.Pipeline.cycles
      && schedule_cycles par = schedule_cycles seq)
    jobs_values

let () =
  Alcotest.run "parallel determinism"
    [
      ( "vs sequential",
        [
          qtest "enumerate: count_matrix is identical for jobs 1,2,4,8"
            seed_gen enumeration_deterministic;
          qtest "classify: identical tables for jobs 1,2,4,8" seed_gen
            classification_deterministic;
          qtest ~count:10 "classify: budget truncation identical for jobs 1,2,4,8"
            QCheck2.Gen.(pair seed_gen (oneofl [ 1; 7; 50; 500; 100_000 ]))
            budgeted_classification_deterministic;
          qtest "portfolio: ranking identical for jobs 1,2,4,8" seed_gen
            portfolio_deterministic;
          qtest ~count:8 "pipeline: schedule identical for jobs 1,2,4,8" seed_gen
            pipeline_deterministic;
        ] );
    ]
