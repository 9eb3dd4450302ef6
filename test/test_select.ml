(* The selection algorithm against the paper's §5.2 worked example (Fig. 4
   graph: priorities 26/24/88/84, picks {aa} then {bb}, falls back to {ab}
   when Pdef = 1) and the full Table 7 "Selected" column for 3DFT. *)

module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Select = Mps_select.Select
module Random_select = Mps_select.Random_select
module Pattern_source = Mps_select.Pattern_source
module Mp = Mps_scheduler.Multi_pattern
module Schedule = Mps_scheduler.Schedule
module Pg = Mps_workloads.Paper_graphs

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
    ]
