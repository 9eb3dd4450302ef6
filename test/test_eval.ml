(* Eval: the shared evaluation context must be a perfect stand-in for the
   full scheduler.

   The contract under test: for any random DAG and any coverage-complete
   pattern set, [Eval.cycles] (dense fast path, memo-cached) returns
   exactly [Schedule.cycles] of [Multi_pattern.schedule] — under both
   pattern priorities, through the id-based entry point, on cache misses
   and on cache hits alike — and fails identically (same [Unschedulable]
   colors) on sets that do not cover the graph.  [Eval.cycles_delta] must
   return exactly what [Eval.cycles] returns on the moved set for any
   walk of swap and grow moves, with exact hit/fallback accounting, on
   recording and non-recording contexts alike, and on a deep pipeline it
   must resume far into the schedule and step at most a third of the
   cycles a full re-evaluation steps.  On top of that, the
   portfolio built on a shared context must stay byte-identical between
   --jobs 1 and --jobs 4. *)

module Dfg = Mps_dfg.Dfg
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

(* --- delta evaluation -------------------------------------------------

   [Eval.cycles_delta] must be a perfect stand-in for [Eval.cycles] on the
   moved set: same cycle counts, same [Unschedulable] colors, for any walk
   of random swap and grow moves, under both priorities, whether or not
   the context records replay data.  The walk mixes covering and
   non-covering replacement patterns so both outcomes are exercised; a
   failed move keeps the previous set so the walk always continues from a
   memoized state, like a rejected annealing move. *)

let outcome f = match f () with c -> Ok c | exception Eval.Unschedulable cs -> Error cs

(* One random move walk driven through [Eval.cycles_delta] on [evd] and
   re-costed as a plain [Eval.cycles] of the moved list on [evf]; returns
   false on the first disagreement. *)
let walk_matches ~seed ~priority evd evf g =
  let rng = Rng.create ~seed in
  let colors = Dfg.colors g in
  let pool =
    Array.init 8 (fun _ ->
        Pattern.random rng ~colors ~size:(1 + Rng.int rng capacity))
  in
  let prev = ref (Random_select.select rng ~colors ~capacity ~pdef:3) in
  let ok = ref true in
  for _ = 1 to 12 do
    let added = Rng.choice rng pool in
    let removed, next =
      if Rng.bool rng || List.length !prev >= 6 then begin
        (* Mirror [cycles_delta]'s semantics exactly: the replacement
           lands at the FIRST occurrence of the removed pattern.  Order
           is part of the memo key and of the schedule (list position
           decides ties), so mutating a later duplicate slot would be a
           genuinely different set. *)
        let slot = Rng.int rng (List.length !prev) in
        let p = List.nth !prev slot in
        let replaced = ref false in
        ( Some p,
          List.map
            (fun q ->
              if (not !replaced) && Pattern.equal q p then begin
                replaced := true;
                added
              end
              else q)
            !prev )
      end
      else (None, !prev @ [ added ])
    in
    let d =
      outcome (fun () ->
          Eval.cycles_delta ~priority ?removed evd ~prev:!prev ~added)
    in
    let f = outcome (fun () -> Eval.cycles ~priority evf next) in
    if d <> f then ok := false;
    match d with Ok _ -> prev := next | Error _ -> ()
  done;
  !ok

(* Replaying a suffix returns exactly what a full evaluation returns, for
   every move of every walk, under both priorities. *)
let delta_matches_full seed =
  let g = random_graph ~seed in
  List.for_all
    (fun priority ->
      walk_matches ~seed ~priority (Eval.make ~delta:true g) (Eval.make g) g)
    [ Mp.F1; Mp.F2 ]

(* A context made without [~delta] must give the same answers through
   [cycles_delta] — every miss a counted fallback, nothing recorded —
   while the recording context splits its misses exactly into hits and
   fallbacks and saves at least one cycle per hit.  Both contexts see the
   same move stream, so their cache accounting must agree too. *)
let delta_accounting seed =
  let g = random_graph ~seed in
  let evd = Eval.make ~delta:true g in
  let evoff = Eval.make g in
  walk_matches ~seed ~priority:Mp.F2 evd evoff g
  &&
  let dh, df, ds = Eval.delta_stats evd in
  let oh, of_, os = Eval.delta_stats evoff in
  let dhits, dmisses = Eval.cache_stats evd in
  let ohits, omisses = Eval.cache_stats evoff in
  (* The off context went through plain [cycles]: no delta traffic. *)
  oh = 0 && of_ = 0 && os = 0
  (* Same stream, same list-keyed caches: identical hit/miss splits. *)
  && (dhits, dmisses) = (ohits, omisses)
  (* Every delta-path miss resolved as a hit or a fallback, never both. *)
  && dh + df = dmisses
  && ds >= dh

(* The same walk driven entirely through [cycles_delta] on a context made
   without [~delta]: no replay data exists, so every miss is a counted
   full-evaluation fallback, and nothing is ever saved. *)
let delta_off_is_all_fallbacks seed =
  let g = random_graph ~seed in
  let ev = Eval.make g in
  walk_matches ~seed ~priority:Mp.F2 ev (Eval.make g) g
  &&
  let h, f, s = Eval.delta_stats ev in
  let _, misses = Eval.cache_stats ev in
  h = 0 && s = 0 && f = misses && f > 0

(* --- deep-pipeline delta stream -----------------------------------------

   The random DAGs above are 4-6 layers deep, so no replay there resumes
   far into a schedule.  This pipeline has 221 layers of two nodes, each
   layer fully joined to the next: the first 212 layers are all color a,
   the last nine cycle through c, d and e.  A set is "aa" plus one
   single-color pattern per tail color, and a move resizes one of those
   three, so the first divergent cycle is the first tail cycle, one past
   the checkpoint ladder's 211.  A snake walk of the 5x5x5 size grid
   makes 124 one-swap moves over 125 distinct sets. *)

let deep_layers = 221
let deep_tail = 9

let deep_pipeline () =
  let name l k = Printf.sprintf "n%d_%d" l k in
  let color l =
    let t = l - (deep_layers - deep_tail) in
    Color.of_char (if t < 0 then 'a' else "cde".[t mod 3])
  in
  let layer l = List.init 2 (fun k -> (name l k, color l)) in
  let joins l =
    List.concat_map
      (fun k -> [ (name (l - 1) 1, name l k); (name (l - 1) 0, name l k) ])
      [ 0; 1 ]
  in
  Dfg.of_alist
    (List.concat_map layer (List.init deep_layers Fun.id))
    (List.concat_map joins (List.init (deep_layers - 1) (fun l -> l + 1)))

(* Step [t] of the boustrophedon walk: consecutive triples differ in one
   coordinate, by one size step. *)
let snake t =
  let i = t / 25 and jx = t mod 25 / 5 and kx = t mod 5 in
  let j = if i mod 2 = 0 then jx else 4 - jx in
  let k = if ((i * 5) + jx) mod 2 = 0 then kx else 4 - kx in
  (i, j, k)

let deep_delta_stream () =
  let g = deep_pipeline () in
  let slot c k = Pattern.of_string (String.make (k + 1) c) in
  let set (i, j, k) =
    [ Pattern.of_string "aa"; slot 'c' i; slot 'd' j; slot 'e' k ]
  in
  let walk = Array.init 125 snake in
  let evf = Eval.make g in
  let full = Array.map (fun v -> Eval.cycles evf (set v)) walk in
  let ev = Eval.make ~delta:true g in
  Alcotest.(check int) "first set" full.(0) (Eval.cycles ev (set walk.(0)));
  for t = 1 to 124 do
    let (pi, pj, pk), (ni, nj, nk) = (walk.(t - 1), walk.(t)) in
    let removed, added =
      if pi <> ni then (slot 'c' pi, slot 'c' ni)
      else if pj <> nj then (slot 'd' pj, slot 'd' nj)
      else (slot 'e' pk, slot 'e' nk)
    in
    Alcotest.(check int)
      (Printf.sprintf "move %d" t)
      full.(t)
      (Eval.cycles_delta ev ~removed ~prev:(set walk.(t - 1)) ~added)
  done;
  let hits, fallbacks, saved = Eval.delta_stats ev in
  Alcotest.(check (triple int int int))
    "delta hits, fallbacks, cycles saved" (124, 0, 26_164)
    (hits, fallbacks, saved);
  Alcotest.(check (pair int int)) "cache hits, misses" (0, 125)
    (Eval.cache_stats ev);
  (* The speed claim in work units: a full re-evaluation steps every cycle
     of every set, the delta path only the cycles it did not save. *)
  let full_steps = Array.fold_left ( + ) 0 full in
  let delta_steps = full_steps - saved in
  if 3 * delta_steps > full_steps then
    Alcotest.failf "delta path stepped %d of %d cycles, over a third"
      delta_steps full_steps

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
      ( "delta evaluation",
        [
          qtest "cycles_delta = cycles over random move walks, F1 and F2"
            seed_gen delta_matches_full;
          qtest "hit/fallback accounting is exact and additive" seed_gen
            delta_accounting;
          qtest "a non-recording context answers identically, all fallbacks"
            seed_gen delta_off_is_all_fallbacks;
          Alcotest.test_case "deep pipeline: 124 swaps resume past cycle 211"
            `Quick deep_delta_stream;
        ] );
      ( "determinism",
        [
          qtest ~count:10 "portfolio ranking identical at --jobs 1 and 4"
            seed_gen portfolio_jobs_identical;
        ] );
    ]
