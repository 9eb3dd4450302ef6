(* Eval: the shared evaluation context must be a perfect stand-in for the
   full scheduler.

   The contract under test: for any random DAG and any coverage-complete
   pattern set, [Eval.cycles] (dense fast path, memo-cached) returns
   exactly [Schedule.cycles] of [Multi_pattern.schedule] — under both
   pattern priorities, through the id-based entry point, on cache misses
   and on cache hits alike — and fails identically (same [Unschedulable]
   colors) on sets that do not cover the graph, also when one context
   costs a whole walk of moves the way the searches do.  A costing with a
   limit answers [min c limit] and memoizes only the runs it finishes.  On
   top of that, the portfolio built on a shared context must stay
   byte-identical between --jobs 1 and --jobs 4. *)

module Dfg = Mps_dfg.Dfg
module Obs = Mps_obs.Obs
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Schedule = Mps_scheduler.Schedule
module Mp = Mps_scheduler.Multi_pattern
module Eval = Mps_scheduler.Eval
module Select = Mps_select.Select
module Random_select = Mps_select.Random_select
module Portfolio = Mps_select.Portfolio
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Pool = Mps_exec.Pool
module Random_dag = Mps_workloads.Random_dag
module Rng = Mps_util.Rng

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

(* A handful of independent coverage-complete sets for one graph. *)
let random_sets ~seed g =
  let rng = Rng.create ~seed in
  let colors = Dfg.colors g in
  List.init 6 (fun _ -> Random_select.select rng ~colors ~capacity ~pdef:3)

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(1 -- 1000)

(* The fast path equals the full scheduler, under both priorities, both
   through a held context and through the one-shot wrapper. *)
let cycles_match_schedule seed =
  let g = random_graph ~seed in
  let sets = random_sets ~seed g in
  let ev = Eval.make g in
  List.for_all
    (fun patterns ->
      Select.covers_all_colors g patterns
      && List.for_all
           (fun priority ->
             let full =
               Schedule.cycles
                 (Mp.schedule ~priority ~patterns g).Mp.schedule
             in
             Eval.cycles ~priority ev patterns = full
             && Mp.cycles ~priority ~patterns g = full)
           [ Mp.F1; Mp.F2 ])
    sets

(* Re-asking a context answers from the memo cache — same counts, hits
   advancing by exactly one per lookup, misses frozen.  Order is part of
   the key (list position decides score ties in the scheduler), so a
   permuted set is its own entry: it must agree with the full-fidelity
   path on the permuted order, not necessarily with the original. *)
let cache_hits_are_identical seed =
  let g = random_graph ~seed in
  let sets = random_sets ~seed g in
  let n = List.length sets in
  let ev = Eval.make g in
  let first = List.map (Eval.cycles ev) sets in
  let h0, m0 = Eval.cache_stats ev in
  let second = List.map (Eval.cycles ev) sets in
  let h1, m1 = Eval.cache_stats ev in
  let reversed_ok =
    List.for_all
      (fun ps ->
        let rev = List.rev ps in
        Eval.cycles ev rev = Mp.cycles ~patterns:rev g)
      sets
  in
  first = second && reversed_ok && m1 = m0 && h1 = h0 + n

(* The id-based entry point (what the searches use) agrees with the
   pattern-based one on a context sharing the caller's universe. *)
let cycles_ids_match seed =
  let g = random_graph ~seed in
  let u = Universe.create () in
  let ev = Eval.make ~universe:u g in
  List.for_all
    (fun patterns ->
      let ids = List.map (Universe.intern u) patterns in
      Eval.cycles_ids ev ids = Mp.cycles ~patterns g)
    (random_sets ~seed g)

(* A set that misses a color entirely must fail identically on both
   paths: same exception, same offending colors. *)
let unschedulable_match seed =
  let g = random_graph ~seed in
  match List.sort_uniq Color.compare (Dfg.colors g) with
  | [] | [ _ ] -> true (* cannot build a non-covering set *)
  | _ :: rest ->
      let rng = Rng.create ~seed in
      let patterns =
        List.init 3 (fun _ -> Pattern.random rng ~colors:rest ~size:capacity)
      in
      let full =
        match Mp.schedule ~patterns g with
        | _ -> None
        | exception Mp.Unschedulable cs -> Some cs
      in
      let fast =
        match Eval.cycles (Eval.make g) patterns with
        | _ -> None
        | exception Eval.Unschedulable cs -> Some cs
      in
      (not (Select.covers_all_colors g patterns))
      && full <> None && fast = full

(* --- one context over a move walk ---------------------------------------

   Annealing and beam cost a stream of sets one move apart on one
   context.  Here one context costs a random walk of swap and grow moves
   under both priorities.  Half the move pool lacks one graph color and
   the walk starts from three of those patterns, so failed sets land in
   the cache next to scheduled ones.  Every answer must equal the
   full-fidelity scheduler on the same list — the same cycles or the same
   [Unschedulable] colors — and re-asking every costed list afterwards
   must give the same answers from the cache alone. *)

let outcome f = match f () with c -> Ok c | exception Eval.Unschedulable cs -> Error cs

let walk_matches_schedule seed =
  let g = random_graph ~seed in
  let ev = Eval.make g in
  let rng = Rng.create ~seed in
  let colors = Dfg.colors g in
  let partial = match colors with _ :: (_ :: _ as rest) -> rest | _ -> colors in
  let pool =
    Array.init 8 (fun i ->
        let colors = if i mod 2 = 0 then colors else partial in
        Pattern.random rng ~colors ~size:(1 + Rng.int rng capacity))
  in
  let costed =
    List.concat_map
      (fun priority ->
        let set = ref [ pool.(1); pool.(3); pool.(5) ] in
        List.init 13 (fun _ ->
            let ps = !set in
            let added = Rng.choice rng pool in
            (set :=
               if Rng.bool rng || List.length ps >= 6 then begin
                 let slot = Rng.int rng (List.length ps) in
                 List.mapi (fun i q -> if i = slot then added else q) ps
               end
               else ps @ [ added ]);
            (priority, ps, outcome (fun () -> Eval.cycles ~priority ev ps))))
      [ Mp.F1; Mp.F2 ]
  in
  let _, misses = Eval.cache_stats ev in
  List.for_all
    (fun (priority, ps, got) ->
      got
      = outcome (fun () ->
            Schedule.cycles (Mp.schedule ~priority ~patterns:ps g).Mp.schedule)
      && outcome (fun () -> Eval.cycles ~priority ev ps) = got)
    costed
  && snd (Eval.cache_stats ev) = misses

(* --- costing with a limit -------------------------------------------------

   [cycles_ids ~limit] on random DAGs, random pattern lists (half of them
   missing a color), F1 and F2, and every limit from 0 to past the cost,
   each on a fresh context: it answers [min c limit], c from the call
   without a limit, or, where that call raises [Unschedulable], raises the
   same or answers [limit].  A set of c cycles must stop exactly when
   c >= limit (no run can finish at or past its limit), and a failing set
   stops when it answers [limit].  A stopped run records one miss, ready
   and placed samples only for the cycles it ran (fewer than [limit]) and
   no [schedule.cycles] sample, and leaves no memo entry: the next call
   without a limit is a miss again and answers c.  A finished run is
   memoized: the next call is a hit. *)

let limited_costing seed =
  let g = random_graph ~seed in
  let u = Universe.create () in
  let rng = Rng.create ~seed in
  let colors = Dfg.colors g in
  let partial = match colors with _ :: (_ :: _ as rest) -> rest | _ -> colors in
  let sets =
    List.init 4 (fun i ->
        let colors = if i mod 2 = 0 then colors else partial in
        List.init (1 + Rng.int rng 3) (fun _ ->
            Pattern.random rng ~colors ~size:(1 + Rng.int rng capacity)))
  in
  let counter obs name =
    List.find_opt (fun c -> c.Obs.name = name) (Obs.counters obs)
  in
  let samples obs name = match counter obs name with Some c -> c.Obs.samples | None -> 0 in
  List.for_all
    (fun patterns ->
      let ids = List.map (Universe.intern u) patterns in
      List.for_all
        (fun priority ->
          let full =
            outcome (fun () -> Eval.cycles_ids ~priority (Eval.make ~universe:u g) ids)
          in
          let top = match full with Ok c -> c + 2 | Error _ -> Dfg.node_count g + 2 in
          List.for_all
            (fun limit ->
              let ev = Eval.make ~universe:u g in
              let obs = Obs.create () in
              let got =
                Obs.run obs (fun () ->
                    outcome (fun () -> Eval.cycles_ids ~priority ~limit ev ids))
              in
              let answer_ok =
                match (full, got) with
                | Ok c, Ok r -> r = min c limit
                | Error cs, Error cs' -> cs = cs'
                | Error _, Ok r -> r = limit
                | Ok _, Error _ -> false
              in
              let stopped =
                match full with Ok c -> c >= limit | Error _ -> got = Ok limit
              in
              let counters_ok =
                samples obs "eval.cache.misses" = 1
                &&
                if stopped then
                  counter obs "schedule.cycles" = None
                  && samples obs "schedule.ready" = samples obs "schedule.placed"
                  && samples obs "schedule.ready" < max 1 limit
                else samples obs "schedule.cycles" = if Result.is_ok full then 1 else 0
              in
              let _, misses = Eval.cache_stats ev in
              let again = outcome (fun () -> Eval.cycles_ids ~priority ev ids) in
              let hits', misses' = Eval.cache_stats ev in
              let memo_ok =
                again = full
                && if stopped then misses' = misses + 1 && hits' = 0
                   else misses' = misses && hits' = 1
              in
              answer_ok && counters_ok && memo_ok)
            (List.init (top + 1) Fun.id))
        [ Mp.F1; Mp.F2 ])
    sets

(* The portfolio costs every strategy on one shared context after the
   fan-in; spreading the strategy work over domains must not move a
   single byte of the ranking. *)
let portfolio_jobs_identical seed =
  let g = random_graph ~seed in
  let cls = Classify.compute ~span_limit:1 ~capacity (Enumerate.make_ctx g) in
  let fingerprint o =
    List.map
      (fun e ->
        ( e.Portfolio.strategy,
          List.map Pattern.to_string e.Portfolio.patterns,
          e.Portfolio.cycles ))
      o.Portfolio.all
  in
  let seq = fingerprint (Portfolio.run ~pdef:3 cls) in
  Pool.with_pool ~jobs:4 (fun pool ->
      fingerprint (Portfolio.run ~pool ~pdef:3 cls) = seq)

let () =
  Alcotest.run "eval context"
    [
      ( "fidelity",
        [
          qtest "Eval.cycles = Schedule.cycles (Mp.schedule), F1 and F2"
            seed_gen cycles_match_schedule;
          qtest "cycles_ids via shared universe = Mp.cycles" seed_gen
            cycles_ids_match;
          qtest "non-covering sets fail identically on both paths" seed_gen
            unschedulable_match;
        ] );
      ( "memo cache",
        [
          qtest "hits return identical counts; stats advance exactly"
            seed_gen cache_hits_are_identical;
        ] );
      ( "limit",
        [
          qtest ~count:100 "cycles_ids ~limit = min c limit; stops memoize nothing"
            seed_gen limited_costing;
        ] );
      ( "shared move walk",
        [
          qtest ~count:1000 "one context over swap and grow moves = Mp.schedule"
            seed_gen walk_matches_schedule;
        ] );
      ( "determinism",
        [
          qtest ~count:10 "portfolio ranking identical at --jobs 1 and 4"
            seed_gen portfolio_jobs_identical;
        ] );
    ]
