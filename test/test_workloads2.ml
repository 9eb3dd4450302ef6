(* Second workload wave (image convolution, bitonic sorting, CORDIC) and
   the extended selectors (beam search, the portfolio). *)

module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Select = Mps_select.Select
module Beam = Mps_select.Beam
module Mp = Mps_scheduler.Multi_pattern
module Schedule = Mps_scheduler.Schedule
module Program = Mps_frontend.Program
module Image = Mps_workloads.Image
module Sorting = Mps_workloads.Sorting
module Cordic = Mps_workloads.Cordic
module Pg = Mps_workloads.Paper_graphs

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs b)

(* --- convolution --- *)

let window_env window name =
  match String.split_on_char '_' name with
  | [ "p"; r; c ] -> window.(int_of_string r).(int_of_string c)
  | _ -> raise Not_found

let test_convolution_values () =
  let kernel = [| [| 1.; 2.; 1. |]; [| 0.; 3.; 0. |]; [| -1.; -2.; -1. |] |] in
  let prog = Image.convolve3x3 ~kernel ~rows:2 ~cols:3 in
  let window =
    Array.init 4 (fun r -> Array.init 5 (fun c -> float_of_int ((r * 5) + c)))
  in
  let want = Image.convolve3x3_reference ~kernel window in
  let got = Program.eval ~env:(window_env window) prog in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '_' name with
      | [ "o"; r; c ] ->
          Alcotest.(check bool) name true
            (close v want.(int_of_string r).(int_of_string c))
      | _ -> Alcotest.failf "unexpected output %s" name)
    got;
  Alcotest.(check int) "6 outputs" 6 (List.length got)

let test_sobel_folds_zeros () =
  (* The Sobel kernel's three zeros and ±1 weights fold away: per output,
     6 non-zero taps, of which 4 have weight ±1 (no multiply) — so each
     output costs 2 multiplies and 5 add/subs. *)
  let prog = Image.sobel_x ~rows:1 ~cols:1 in
  let g = Program.dfg prog in
  let count ch =
    List.length
      (List.filter (fun i -> Color.to_char (Dfg.color g i) = ch) (Dfg.nodes g))
  in
  Alcotest.(check int) "2 multiplies" 2 (count 'c');
  Alcotest.(check int) "5 adds+subs" 5 (count 'a' + count 'b')

let conv_prop =
  qtest "convolution = reference on random windows"
    QCheck2.Gen.(
      array_size (pure 3)
        (array_size (pure 3) (float_range (-2.) 2.)))
    (fun kernel ->
      let prog = Image.convolve3x3 ~kernel ~rows:2 ~cols:2 in
      let window =
        Array.init 4 (fun r -> Array.init 4 (fun c -> sin (float_of_int ((r * 7) + c))))
      in
      let want = Image.convolve3x3_reference ~kernel window in
      let got = Program.eval ~env:(window_env window) prog in
      List.for_all
        (fun (name, v) ->
          match String.split_on_char '_' name with
          | [ "o"; r; c ] -> close v want.(int_of_string r).(int_of_string c)
          | _ -> false)
        got)

(* --- bitonic --- *)

let test_bitonic_structure () =
  let prog = Sorting.bitonic ~n:8 in
  let g = Program.dfg prog in
  Alcotest.(check int) "comparator count formula" 24 (Sorting.comparator_count ~n:8);
  Alcotest.(check int) "two nodes per comparator" 48 (Dfg.node_count g);
  let colors = List.map Color.to_char (Dfg.colors g) in
  Alcotest.(check (list char)) "min and max colors" [ 'h'; 'i' ] colors;
  Alcotest.check_raises "power of two"
    (Invalid_argument "Sorting.bitonic: n must be a power of two >= 2") (fun () ->
      ignore (Sorting.bitonic ~n:6))

let bitonic_sorts =
  qtest "bitonic network sorts"
    QCheck2.Gen.(array_size (pure 8) (float_range (-100.) 100.))
    (fun xs ->
      let prog = Sorting.bitonic ~n:8 in
      let env name = xs.(int_of_string (String.sub name 1 (String.length name - 1))) in
      let got =
        Program.eval ~env prog
        |> List.sort (fun (a, _) (b, _) ->
               compare
                 (int_of_string (String.sub a 1 (String.length a - 1)))
                 (int_of_string (String.sub b 1 (String.length b - 1))))
        |> List.map snd
      in
      let want = List.sort compare (Array.to_list xs) in
      List.equal Float.equal got want)

let test_bitonic_maps_to_tile () =
  let prog = Sorting.bitonic ~n:8 in
  match Core.Pipeline.map_program prog with
  | Error m -> Alcotest.failf "mapping failed: %s" m
  | Ok mapped -> (
      let env name = float_of_int (7 - int_of_string (String.sub name 1 1)) in
      match Core.Pipeline.verify mapped ~env with
      | Ok () -> ()
      | Error m -> Alcotest.failf "simulation: %s" m)

(* --- cordic --- *)

let test_cordic_matches_reference () =
  let directions = [ true; false; true; true; false; true ] in
  let prog = Cordic.rotate ~iterations:6 ~directions in
  let x0 = 16384 and y0 = -3000 in
  let env = function
    | "x" -> float_of_int x0
    | "y" -> float_of_int y0
    | _ -> raise Not_found
  in
  let out = Program.eval ~env prog in
  let xr, yr = Cordic.reference ~iterations:6 ~directions ~x:x0 ~y:y0 in
  Alcotest.(check (float 0.)) "x" (float_of_int xr) (List.assoc "xr" out);
  Alcotest.(check (float 0.)) "y" (float_of_int yr) (List.assoc "yr" out)

let test_cordic_serial () =
  let directions = List.init 8 (fun i -> i mod 2 = 0) in
  let prog = Cordic.rotate ~iterations:8 ~directions in
  let g = Program.dfg prog in
  (* Each iteration chains on the previous: depth ~ 2 per iteration. *)
  Alcotest.(check bool) "deep and narrow" true
    (Levels.lower_bound_cycles (Levels.compute g) >= 8);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Cordic.rotate: directions length mismatch") (fun () ->
      ignore (Cordic.rotate ~iterations:3 ~directions:[ true ]))

let cordic_prop =
  qtest "cordic = integer reference"
    QCheck2.Gen.(
      triple (int_range 2 10)
        (int_range (-20000) 20000)
        (int_range (-20000) 20000))
    (fun (iterations, x, y) ->
      let directions = List.init iterations (fun i -> (i * 7) mod 3 <> 0) in
      let prog = Cordic.rotate ~iterations ~directions in
      let env = function
        | "x" -> float_of_int x
        | "y" -> float_of_int y
        | _ -> raise Not_found
      in
      let out = Program.eval ~env prog in
      let xr, yr = Cordic.reference ~iterations ~directions ~x ~y in
      Float.equal (List.assoc "xr" out) (float_of_int xr)
      && Float.equal (List.assoc "yr" out) (float_of_int yr))

(* --- beam search --- *)

let classify_of g = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g)

let test_beam_matches_or_beats_heuristic () =
  let g = Pg.fig2_3dft () in
  let cls = classify_of g in
  List.iter
    (fun pdef ->
      let heuristic = Select.select ~pdef cls in
      let hc = Schedule.cycles (Mp.schedule ~patterns:heuristic g).Mp.schedule in
      let beam = Beam.search ~width:6 ~pdef cls in
      Alcotest.(check bool)
        (Printf.sprintf "pdef=%d: beam %d <= heuristic %d" pdef beam.Beam.cycles hc)
        true
        (beam.Beam.cycles <= hc);
      Alcotest.(check bool) "covers colors" true
        (Select.covers_all_colors g beam.Beam.patterns);
      Alcotest.(check int) "reported cost is real" beam.Beam.cycles
        (Schedule.cycles (Mp.schedule ~patterns:beam.Beam.patterns g).Mp.schedule))
    [ 1; 2; 3; 4 ]

(* Every base-corpus graph but dct8 (the slowest to classify), each
   classified once for all the corpus-wide properties below. *)
let corpus =
  lazy
    (Mps_workloads.Suite.graphs ()
    |> List.filter (fun (name, _) -> name <> "dct8")
    |> List.map (fun (name, g) -> (name, classify_of g)))

let test_beam_width1_equals_heuristic_sets () =
  (* Width 1 follows the same greedy trajectory as Select: the same
     patterns in the same order on every corpus graph at pdef 1-6. *)
  List.iter
    (fun (name, cls) ->
      for pdef = 1 to 6 do
        Alcotest.(check (list string))
          (Printf.sprintf "%s pdef=%d" name pdef)
          (List.map Pattern.to_string (Select.select ~pdef cls))
          (List.map Pattern.to_string (Beam.search ~width:1 ~pdef cls).Beam.patterns)
      done)
    (Lazy.force corpus)

let test_beam_args () =
  let cls = classify_of (Pg.fig4_small ()) in
  Alcotest.check_raises "width 0" (Invalid_argument "Beam.search: width must be >= 1")
    (fun () -> ignore (Beam.search ~width:0 ~pdef:2 cls))

(* --- portfolio --- *)

module Portfolio = Mps_select.Portfolio

let test_portfolio_beats_everyone () =
  List.iter
    (fun (name, g) ->
      let cls = classify_of g in
      let rng = Mps_util.Rng.create ~seed:5 in
      let o = Portfolio.run ~annealing:(rng, 300) ~pdef:4 cls in
      (* The winner is real and no strategy in the list beats it. *)
      Alcotest.(check int)
        (Printf.sprintf "%s: winner cost is real" name)
        o.Portfolio.best.Portfolio.cycles
        (Schedule.cycles
           (Mp.schedule ~patterns:o.Portfolio.best.Portfolio.patterns g).Mp.schedule);
      List.iter
        (fun e ->
          Alcotest.(check bool) "ranked" true
            (o.Portfolio.best.Portfolio.cycles <= e.Portfolio.cycles))
        o.Portfolio.all;
      (* eq8 is always among the entries. *)
      Alcotest.(check bool) "eq8 present" true
        (List.exists (fun e -> e.Portfolio.strategy = "eq8") o.Portfolio.all))
    [ ("3dft", Pg.fig2_3dft ()); ("fig4", Pg.fig4_small ()) ]

let test_portfolio_never_worse_than_eq8 () =
  let g = Pg.fig2_3dft () in
  let cls = classify_of g in
  let o = Portfolio.run ~pdef:4 cls in
  let eq8 = List.find (fun e -> e.Portfolio.strategy = "eq8") o.Portfolio.all in
  Alcotest.(check bool) "portfolio <= eq8" true
    (o.Portfolio.best.Portfolio.cycles <= eq8.Portfolio.cycles)

(* The portfolio's best cycles at pdef 2, 4 and 6, recorded when the
   registry still held nine backends.  Pruning the registry to the three
   that ever reached the minimum must leave every value in place. *)
let portfolio_best_pinned =
  [
    ("3dft", [ 7; 6; 5 ]);
    ("fig4", [ 3; 3; 3 ]);
    ("w3dft", [ 4; 4; 4 ]);
    ("w5dft", [ 11; 10; 10 ]);
    ("fft8", [ 13; 12; 12 ]);
    ("mm222", [ 3; 3; 3 ]);
    ("fir8", [ 13; 12; 12 ]);
    ("iir4", [ 14; 14; 14 ]);
    ("horner16", [ 32; 32; 32 ]);
    ("adv-wide", [ 5; 5; 5 ]);
    ("adv-deep", [ 24; 24; 24 ]);
    ("adv-dense", [ 9; 8; 8 ]);
    ("adv-mono", [ 5; 5; 5 ]);
    ("adv-rainbow", [ 5; 5; 5 ]);
  ]

let test_portfolio_best_pinned () =
  Alcotest.(check (list string)) "corpus"
    (List.map fst portfolio_best_pinned)
    (List.map fst (Lazy.force corpus));
  List.iter
    (fun (name, cls) ->
      List.iter2
        (fun pdef want ->
          Alcotest.(check int)
            (Printf.sprintf "%s pdef=%d" name pdef)
            want
            (Portfolio.run ~pdef cls).Portfolio.best.Portfolio.cycles)
        [ 2; 4; 6 ]
        (List.assoc name portfolio_best_pinned))
    (Lazy.force corpus)

(* Pdef is the size of the configuration table: no backend, and so no
   auto answer, may hand back more patterns than that. *)
let test_at_most_pdef_patterns () =
  List.iter
    (fun (name, cls) ->
      for pdef = 1 to 6 do
        let check who patterns =
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s pdef=%d: %d patterns" who name pdef
               (List.length patterns))
            true
            (List.length patterns <= pdef)
        in
        List.iter
          (fun (strategy, run) -> check strategy (fst (run ())))
          (Portfolio.strategies ~pdef cls);
        check "auto" (Mps_select.Auto.select ~pdef cls).Mps_select.Auto.patterns
      done)
    (Lazy.force corpus)

(* 3dft has three colors, so one-slot patterns cannot cover them in two
   picks: every finalist is unschedulable, and the searches say so with
   max_int instead of raising. *)
let test_uncoverable_is_max_int () =
  let cls =
    Classify.compute ~span_limit:1 ~capacity:1 (Enumerate.make_ctx (Pg.fig2_3dft ()))
  in
  Alcotest.(check int) "beam" max_int (Beam.search ~pdef:2 cls).Beam.cycles;
  let o = Portfolio.run ~pdef:2 cls in
  List.iter
    (fun e -> Alcotest.(check int) e.Portfolio.strategy max_int e.Portfolio.cycles)
    o.Portfolio.all

let () =
  Alcotest.run "workloads2"
    [
      ( "convolution",
        [
          Alcotest.test_case "values" `Quick test_convolution_values;
          Alcotest.test_case "sobel folds zeros" `Quick test_sobel_folds_zeros;
          conv_prop;
        ] );
      ( "bitonic",
        [
          Alcotest.test_case "structure" `Quick test_bitonic_structure;
          bitonic_sorts;
          Alcotest.test_case "maps to tile" `Quick test_bitonic_maps_to_tile;
        ] );
      ( "cordic",
        [
          Alcotest.test_case "reference match" `Quick test_cordic_matches_reference;
          Alcotest.test_case "serial structure" `Quick test_cordic_serial;
          cordic_prop;
        ] );
      ( "beam",
        [
          Alcotest.test_case "matches or beats heuristic" `Quick
            test_beam_matches_or_beats_heuristic;
          Alcotest.test_case "width 1 = greedy" `Quick
            test_beam_width1_equals_heuristic_sets;
          Alcotest.test_case "argument checks" `Quick test_beam_args;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "beats every member" `Quick test_portfolio_beats_everyone;
          Alcotest.test_case "never worse than eq8" `Quick
            test_portfolio_never_worse_than_eq8;
        ] );
      (* What the pruned three-backend registry must still guarantee. *)
      ( "portfolio-pruning",
        [
          Alcotest.test_case "best cycles pinned on corpus" `Quick
            test_portfolio_best_pinned;
          Alcotest.test_case "at most pdef patterns" `Quick
            test_at_most_pdef_patterns;
          Alcotest.test_case "uncoverable costs max_int" `Quick
            test_uncoverable_is_max_int;
        ] );
    ]
