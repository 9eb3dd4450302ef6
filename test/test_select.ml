(* The selection algorithm against the paper's §5.2 worked example (Fig. 4
   graph: priorities 26/24/88/84, picks {aa} then {bb}, falls back to {ab}
   when Pdef = 1) and the full Table 7 "Selected" column for 3DFT. *)

module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Select = Mps_select.Select
module Random_select = Mps_select.Random_select
module Pattern_source = Mps_select.Pattern_source
module Mp = Mps_scheduler.Multi_pattern
module Schedule = Mps_scheduler.Schedule
module Pg = Mps_workloads.Paper_graphs
module Beam = Mps_select.Beam
module Suite = Mps_workloads.Suite
module Random_dag = Mps_workloads.Random_dag
module Obs = Mps_obs.Obs

let pat = Pattern.of_string

let fig4_classify () =
  Classify.compute ~capacity:Pg.montium_capacity (Enumerate.make_ctx (Pg.fig4_small ()))

let priority_of report step_idx p =
  let step = List.nth report.Select.steps step_idx in
  match List.assoc_opt p step.Select.priorities with
  | Some f -> f
  | None -> Alcotest.failf "pattern %s not scored at step %d" (Pattern.to_string p) step_idx

(* --- §5.2 worked example --- *)

let test_first_step_priorities () =
  let report = Select.select_report ~pdef:2 (fig4_classify ()) in
  let f = priority_of report 0 in
  Alcotest.(check (float 1e-9)) "f(p1={a}) = 26" 26.0 (f (pat "a"));
  Alcotest.(check (float 1e-9)) "f(p2={b}) = 24" 24.0 (f (pat "b"));
  Alcotest.(check (float 1e-9)) "f(p3={aa}) = 88" 88.0 (f (pat "aa"));
  Alcotest.(check (float 1e-9)) "f(p4={bb}) = 84" 84.0 (f (pat "bb"))

let test_selection_order () =
  let report = Select.select_report ~pdef:2 (fig4_classify ()) in
  let chosen = List.map (fun s -> Pattern.to_string s.Select.chosen) report.steps in
  Alcotest.(check (list string)) "picks {aa} then {bb}" [ "aa"; "bb" ] chosen

let test_subpattern_deletion () =
  let report = Select.select_report ~pdef:2 (fig4_classify ()) in
  let first = List.hd report.steps in
  let deleted = List.map Pattern.to_string first.Select.deleted |> List.sort String.compare in
  (* Selecting {aa} deletes its subpatterns {a} and {aa} itself. *)
  Alcotest.(check (list string)) "deleted after {aa}" [ "a"; "aa" ] deleted;
  (* Consequence the paper highlights: p2 and p4 keep their old priorities
     at the second step because {aa}'s antichains share no node with them. *)
  let f = priority_of report 1 in
  Alcotest.(check (float 1e-9)) "f(p2) unchanged" 24.0 (f (pat "b"));
  Alcotest.(check (float 1e-9)) "f(p4) unchanged" 84.0 (f (pat "bb"))

let test_pdef1_fallback_ab () =
  (* No antichain mixes colors, so no candidate satisfies Eq. 9 and the
     algorithm must fabricate {ab}. *)
  let report = Select.select_report ~pdef:1 (fig4_classify ()) in
  match report.steps with
  | [ step ] ->
      Alcotest.(check bool) "fallback" true step.Select.fallback;
      Alcotest.(check string) "pattern {ab}" "ab" (Pattern.to_string step.chosen);
      (* Every candidate was scored 0 at that step. *)
      List.iter
        (fun (_, f) -> Alcotest.(check (float 1e-9)) "zero priority" 0.0 f)
        step.priorities
  | steps -> Alcotest.failf "expected 1 step, got %d" (List.length steps)

let test_alpha_zero_ties () =
  (* Without the α·|p|² term, {b} and {bb} tie at 4 in the second step (the
     paper's motivation for α). *)
  let params = { Select.default_params with alpha = 0.0 } in
  let report = Select.select_report ~params ~pdef:2 (fig4_classify ()) in
  let f = priority_of report 1 in
  Alcotest.(check (float 1e-9)) "f(p2) = 4" 4.0 (f (pat "b"));
  Alcotest.(check (float 1e-9)) "f(p4) = 4" 4.0 (f (pat "bb"))

let test_coverage_guarantee () =
  let g = Pg.fig4_small () in
  let classify = fig4_classify () in
  for pdef = 1 to 4 do
    let pats = Select.select ~pdef classify in
    Alcotest.(check bool)
      (Printf.sprintf "pdef=%d covers all colors" pdef)
      true
      (Select.covers_all_colors g pats)
  done

(* --- Table 7, 3DFT "Selected" column --- *)

let table7_selected_3dft span_limit =
  let g = Pg.fig2_3dft () in
  let classify =
    Classify.compute ?span_limit ~capacity:Pg.montium_capacity (Enumerate.make_ctx g)
  in
  List.map
    (fun (pdef, _, _) ->
      let pats = Select.select ~pdef classify in
      (pdef, Schedule.cycles (Mp.schedule ~patterns:pats g).schedule))
    Pg.table7_3dft

let test_table7_3dft_exact () =
  (* With span limit 1 the pipeline reproduces the paper's column verbatim:
     8, 7, 7, 7, 6 — see EXPERIMENTS.md on why limit 1 is the operating
     point. *)
  let measured = table7_selected_3dft (Some 1) in
  List.iter2
    (fun (pdef, _, expected) (pdef', got) ->
      Alcotest.(check int) (Printf.sprintf "pdef=%d" pdef) pdef pdef';
      Alcotest.(check int) (Printf.sprintf "cycles at pdef=%d" pdef) expected got)
    Pg.table7_3dft measured

let test_table7_monotone () =
  (* Paper's observation 1: more patterns never hurt (weakly decreasing). *)
  List.iter
    (fun limit ->
      let measured = table7_selected_3dft limit in
      let rec check = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            Alcotest.(check bool) "monotone non-increasing" true (b <= a);
            check rest
        | _ -> ()
      in
      check measured)
    [ None; Some 1; Some 2 ]

let test_selected_beats_random_on_average () =
  (* Paper's observation 2, at every Pdef, for the 3DFT. *)
  let g = Pg.fig2_3dft () in
  let classify =
    Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g)
  in
  let rng = Mps_util.Rng.create ~seed:7 in
  let colors = Dfg.colors g in
  List.iter
    (fun pdef ->
      let sel = Select.select ~pdef classify in
      let sel_cycles = Schedule.cycles (Mp.schedule ~patterns:sel g).schedule in
      let draws = Random_select.trials rng ~runs:10 ~colors ~capacity:5 ~pdef in
      let avg =
        Mps_util.Mstats.mean
          (Array.of_list
             (List.map
                (fun ps ->
                  float_of_int (Schedule.cycles (Mp.schedule ~patterns:ps g).schedule))
                draws))
      in
      Alcotest.(check bool)
        (Printf.sprintf "pdef=%d: selected %d <= random avg %.1f" pdef sel_cycles avg)
        true
        (float_of_int sel_cycles <= avg))
    [ 1; 2; 3; 4; 5 ]

(* --- baselines and oracle --- *)

let test_random_coverage () =
  let rng = Mps_util.Rng.create ~seed:1 in
  let colors = List.map Color.of_char [ 'a'; 'b'; 'c' ] in
  List.iter
    (fun pdef ->
      let sets = Random_select.trials rng ~runs:20 ~colors ~capacity:5 ~pdef in
      List.iter
        (fun ps ->
          let covered =
            List.fold_left
              (fun acc p -> Color.Set.union acc (Pattern.color_set p))
              Color.Set.empty ps
          in
          Alcotest.(check int) "all colors covered" 3 (Color.Set.cardinal covered);
          Alcotest.(check int) "pdef patterns" pdef (List.length ps);
          List.iter
            (fun p -> Alcotest.(check int) "full size" 5 (Pattern.size p))
            ps)
        sets)
    [ 1; 2; 3 ]

let test_random_coverage_impossible () =
  let rng = Mps_util.Rng.create ~seed:1 in
  let colors = List.map Color.of_int [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.check_raises "6 colors cannot fit 1 pattern of 5"
    (Invalid_argument "Random_select.select: coverage impossible for these sizes")
    (fun () -> ignore (Random_select.select rng ~colors ~capacity:5 ~pdef:1))

let test_exhaustive_fig4 () =
  let g = Pg.fig4_small () in
  let classify = fig4_classify () in
  let oracle = Exhaustive.search ~pdef:2 classify in
  Alcotest.(check bool) "not truncated" false oracle.truncated;
  (* The heuristic's choice {aa},{bb} is optimal here: 3 cycles (the
     critical path). *)
  Alcotest.(check int) "oracle reaches critical path" 3 oracle.best_cycles;
  let heuristic = Select.select ~pdef:2 classify in
  let hc = Schedule.cycles (Mp.schedule ~patterns:heuristic g).schedule in
  Alcotest.(check int) "heuristic matches oracle" oracle.best_cycles hc

let test_exhaustive_3dft_pdef2 () =
  let g = Pg.fig2_3dft () in
  let classify = Classify.compute ~span_limit:0 ~capacity:5 (Enumerate.make_ctx g) in
  let oracle = Exhaustive.search ~pdef:2 classify in
  Alcotest.(check bool) "not truncated" false oracle.truncated;
  let heuristic = Select.select ~pdef:2 classify in
  let hc = Schedule.cycles (Mp.schedule ~patterns:heuristic g).schedule in
  Alcotest.(check bool)
    (Printf.sprintf "heuristic %d within 2 of oracle %d" hc oracle.best_cycles)
    true
    (hc - oracle.best_cycles <= 2)

let test_pattern_source () =
  let g = Pg.fig2_3dft () in
  List.iter
    (fun method_ ->
      let pats = Pattern_source.harvest ~method_ ~capacity:5 ~pdef:3 g in
      Alcotest.(check bool) "covers colors" true (Select.covers_all_colors g pats);
      Alcotest.(check bool) "at most pdef patterns" true (List.length pats <= 3);
      let r = Mp.schedule ~patterns:pats g in
      Alcotest.(check bool) "schedulable" true (Schedule.cycles r.schedule >= 5))
    [ Pattern_source.Greedy; Pattern_source.Force_directed ]

(* --- the flat kernel against the list-based reference --- *)

(* Every field of a report, priorities as their bits. *)
let report_rows r =
  let bits = Int64.bits_of_float in
  ( List.map Pattern.to_string r.Select.patterns,
    List.map
      (fun s ->
        ( Pattern.to_string s.Select.chosen,
          bits s.Select.priority,
          s.Select.fallback,
          List.map Pattern.to_string s.Select.deleted,
          List.map (fun (p, f) -> (Pattern.to_string p, bits f)) s.Select.priorities ))
      r.Select.steps )

let beam_row o =
  (List.map Pattern.to_string o.Beam.patterns, o.Beam.cycles, o.Beam.evaluated_sets)

let alpha_zero = { Select.default_params with Select.alpha = 0.0 }

(* The kernel and the reference on one classification; [None] when they
   agree, else what differs. *)
let kernel_mismatch ?(params = Select.default_params) ?(width = 4) ~pdef cls =
  if report_rows (Select.select_report ~params ~pdef cls)
     <> report_rows (Select_ref.select_report ~params ~pdef cls)
  then Some "Eq. 8 report"
  else if beam_row (Beam.search ~width ~params ~pdef cls)
          <> beam_row (Select_ref.beam_search ~width ~params ~pdef cls)
  then Some "beam outcome"
  else None

(* The 23 corpus graphs, span 1 and capped at 100k antichains so fft16
   and fir16 stay quick; a truncated pool is as good a kernel input. *)
let corpus_classifications =
  lazy
    (List.map
       (fun (name, g) ->
         (name, Classify.compute ~span_limit:1 ~budget:100_000 ~capacity:5 (Enumerate.make_ctx g)))
       (Suite.graphs ~full:true ~huge:true ()))

let test_kernel_corpus () =
  let corpus = Lazy.force corpus_classifications in
  Alcotest.(check int) "corpus graphs" 23 (List.length corpus);
  List.iter
    (fun (name, cls) ->
      for pdef = 1 to 8 do
        List.iter
          (fun (label, params) ->
            match kernel_mismatch ~params ~pdef cls with
            | None -> ()
            | Some what -> Alcotest.failf "%s pdef %d %s: %s differs" name pdef label what)
          [ ("alpha 20", Select.default_params); ("alpha 0", alpha_zero) ]
      done)
    corpus

(* 30 unconnected nodes over 10 colors, node i colored "abcdefghij".[i
   mod 10] (test/cli/colors10.dfg): the only pool here in the thousands,
   so each Fig. 7 step deletes from 2,892 candidates. *)
let colors10 () =
  let b = Dfg.Builder.create () in
  for i = 0 to 29 do
    ignore (Dfg.Builder.add_node b (Color.of_char "abcdefghij".[i mod 10]))
  done;
  Dfg.Builder.build b

(* Eq. 9 keeps no color bitmask, so more colors than a machine word holds
   work too: 20 layers of 4 nodes, each layer feeding the next, every
   node its own color out of 80 printable characters.  The colors10 graph
   rides along for its pool size. *)
let test_kernel_many_colors () =
  let palette =
    List.filter (fun c -> c <> '-') (List.init 94 (fun k -> Char.chr (33 + k)))
  in
  let b = Dfg.Builder.create () in
  let ids =
    Array.init 80 (fun k -> Dfg.Builder.add_node b (Color.of_char (List.nth palette k)))
  in
  for layer = 0 to 18 do
    for i = 0 to 3 do
      for j = 0 to 3 do
        Dfg.Builder.add_edge b ids.((4 * layer) + i) ids.((4 * (layer + 1)) + j)
      done
    done
  done;
  let g = Dfg.Builder.build b in
  Alcotest.(check int) "colors" 80 (List.length (Dfg.colors g));
  let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g) in
  List.iter
    (fun pdef ->
      match kernel_mismatch ~pdef cls with
      | None -> ()
      | Some what -> Alcotest.failf "pdef %d: %s differs" pdef what)
    [ 1; 8; 15; 16; 17; 24 ];
  let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx (colors10 ())) in
  Alcotest.(check (pair int int)) "colors10 antichains and pool" (174_436, 2_892)
    (Classify.total_antichains cls, Classify.pattern_count cls);
  List.iter
    (fun pdef ->
      match kernel_mismatch ~pdef cls with
      | None -> ()
      | Some what -> Alcotest.failf "colors10 pdef %d: %s differs" pdef what)
    [ 1; 4; 8 ]

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A random DAG with a few colors beyond the paper's three, classified
   at a random capacity and span. *)
let random_case_gen =
  QCheck2.Gen.(
    map
      (fun (seed, capacity, span, pdef, (alpha, width)) ->
        let palette =
          List.init (2 + (seed mod 5)) (fun k -> (Color.of_int (k * 3 mod 52), 1 + (k mod 3)))
        in
        let params =
          {
            Random_dag.default_params with
            Random_dag.layers = 3 + (seed mod 4);
            width = 2 + (seed mod 4);
            palette;
          }
        in
        let g = Random_dag.generate ~params ~seed () in
        let cls =
          Classify.compute ?span_limit:(if span = 0 then None else Some span) ~capacity
            (Enumerate.make_ctx g)
        in
        (seed, cls, pdef, alpha, width))
      (tup5 (0 -- 10_000) (1 -- 5) (0 -- 2) (1 -- 8) (pair (oneofl [ 0.0; 5.0; 20.0 ]) (1 -- 5))))

let kernel_random (seed, cls, pdef, alpha, width) =
  let params = { Select.default_params with Select.alpha } in
  match kernel_mismatch ~params ~width ~pdef cls with
  | None -> true
  | Some what ->
      QCheck2.Test.fail_reportf "seed %d pdef %d alpha %g width %d: %s differs" seed pdef
        alpha width what

(* Past its fixed point beam only repeats itself: every state has run
   out of pool picks (at most the pool size) and of fallbacks (at most the
   color count), so a Pdef of 2^40 must answer at once, and as that
   bound does. *)
let beam_fixed_point (seed, cls, _, alpha, width) =
  let params = { Select.default_params with Select.alpha } in
  let bound =
    Classify.pattern_count cls + List.length (Dfg.colors (Classify.graph cls))
  in
  let huge = Beam.search ~width ~params ~pdef:(1 lsl 40) cls in
  beam_row huge = beam_row (Beam.search ~width ~params ~pdef:bound cls)
  || QCheck2.Test.fail_reportf "seed %d: pdef 2^40 differs from pdef %d" seed bound

(* Fig. 7, line 4 on a random pool and alive mask: [Select.delete]
   clears exactly the alive candidates that are subpatterns of the
   choice.  The choice is a pool member, or a pattern interned after the
   pool was flattened, as a fallback is. *)
let delete_gen =
  QCheck2.Gen.(
    let pattern =
      map
        (fun chars -> Pattern.of_colors (List.map Color.of_char chars))
        (list_size (1 -- 5) (char_range 'a' 'd'))
    in
    triple (list_size (1 -- 30) (pair pattern bool)) (option (int_bound 29)) pattern)

let delete_clears_subpatterns (entries, member, outsider) =
  let u = Universe.create () in
  let pool =
    Select.pool u
      ~colors:(Color.Set.of_list (List.map Color.of_char [ 'a'; 'b'; 'c'; 'd' ]))
      (List.map (fun (p, _) -> (Universe.intern u p, ())) entries)
  in
  let was_alive = Array.of_list (List.map snd entries) in
  let alive =
    Bytes.init (Array.length was_alive) (fun k -> if was_alive.(k) then '\001' else '\000')
  in
  let choice =
    match member with
    | Some k when k < List.length entries -> fst (List.nth entries k)
    | _ -> outsider
  in
  Select.delete pool ~alive ~of_:(Universe.intern u choice);
  List.for_all Fun.id
    (List.mapi
       (fun k (p, _) ->
         (Bytes.get alive k <> '\000')
         = (was_alive.(k) && not (Pattern.subpattern p ~of_:choice)))
       entries)

(* [beam.expansions] of one search: (steps taken, states they expanded
   into). *)
let beam_expansions ~pdef cls =
  let obs = Obs.create () in
  ignore (Obs.run obs (fun () -> Beam.search ~pdef cls));
  match List.find_opt (fun c -> c.Obs.name = "beam.expansions") (Obs.counters obs) with
  | Some c -> (c.Obs.samples, c.Obs.total)
  | None -> (0, 0)

(* Each step of a state either deletes a pool candidate or fabricates a
   pattern over an uncovered color, so by pool size + colors + 1 steps the
   beam has reached its fixed point and stopped, each step expanding at
   most width states into width each.  Pdef 10^4 is quick even for a beam
   that steps on to it, so a lost stop fails here instead of hanging.
   horner16 and adv-mono reach the fixed point before Pdef 4 and read one
   step fewer there; 3dft and w5dft take all four steps. *)
let test_beam_stops () =
  List.iter
    (fun (name, at_pdef4) ->
      let g = (Option.get (Suite.find name)).Suite.build () in
      let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g) in
      Alcotest.(check (pair int int)) (name ^ " at Pdef 4") at_pdef4 (beam_expansions ~pdef:4 cls);
      let bound = Classify.pattern_count cls + List.length (Dfg.colors g) + 1 in
      let steps, states = beam_expansions ~pdef:10_000 cls in
      if steps > bound || states > bound * 4 * 4 then
        Alcotest.failf "%s at Pdef 10^4: %d steps expanding %d states, past %d steps" name
          steps states bound)
    [ ("horner16", (3, 5)); ("adv-mono", (3, 15)); ("3dft", (4, 52)); ("w5dft", (4, 52)) ]

let () =
  Alcotest.run "select"
    [
      ( "section-5.2",
        [
          Alcotest.test_case "first-step priorities 26/24/88/84" `Quick
            test_first_step_priorities;
          Alcotest.test_case "selection order" `Quick test_selection_order;
          Alcotest.test_case "subpattern deletion" `Quick test_subpattern_deletion;
          Alcotest.test_case "Pdef=1 fallback {ab}" `Quick test_pdef1_fallback_ab;
          Alcotest.test_case "alpha=0 ties {b} and {bb}" `Quick test_alpha_zero_ties;
          Alcotest.test_case "coverage guarantee" `Quick test_coverage_guarantee;
        ] );
      ( "table-7",
        [
          Alcotest.test_case "3DFT selected column exact" `Quick test_table7_3dft_exact;
          Alcotest.test_case "monotone in Pdef" `Quick test_table7_monotone;
          Alcotest.test_case "selected <= random average" `Quick
            test_selected_beats_random_on_average;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "random coverage" `Quick test_random_coverage;
          Alcotest.test_case "random impossible coverage" `Quick
            test_random_coverage_impossible;
          Alcotest.test_case "exhaustive oracle fig4" `Quick test_exhaustive_fig4;
          Alcotest.test_case "exhaustive oracle 3dft pdef2" `Slow
            test_exhaustive_3dft_pdef2;
          Alcotest.test_case "schedule-derived patterns" `Quick test_pattern_source;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "corpus = list-based reference" `Quick test_kernel_corpus;
          Alcotest.test_case "80 colors = list-based reference" `Quick
            test_kernel_many_colors;
          qtest "random DAGs = list-based reference" random_case_gen kernel_random;
          qtest ~count:30 "beam: pdef 2^40 = its fixed point" random_case_gen
            beam_fixed_point;
          Alcotest.test_case "beam: stops at its fixed point" `Quick test_beam_stops;
          qtest ~count:500 "delete: exactly the subpatterns" delete_gen
            delete_clears_subpatterns;
        ] );
    ]
