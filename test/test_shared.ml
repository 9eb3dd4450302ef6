(* Shared pattern selection across kernel suites. *)

module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Select = Mps_select.Select
module Shared = Mps_select.Shared
module Classify = Mps_antichain.Classify
module Enumerate = Mps_antichain.Enumerate
module Mp = Mps_scheduler.Multi_pattern
module Schedule = Mps_scheduler.Schedule
module Program = Mps_frontend.Program
module Dft = Mps_workloads.Dft
module Kernels = Mps_workloads.Kernels
module Pg = Mps_workloads.Paper_graphs

let suite () =
  [
    Shared.kernel ~span_limit:1 ~label:"3dft" (Pg.fig2_3dft ());
    Shared.kernel ~span_limit:1 ~label:"w5dft" (Program.dfg (Dft.winograd5 ()));
    Shared.kernel ~span_limit:1 ~label:"fir"
      (Program.dfg (Kernels.fir ~taps:[ 0.5; 0.25; -0.75; 0.125 ] ~block:4));
  ]

let test_shared_basics () =
  let kernels = suite () in
  let o = Shared.select ~pdef:4 kernels in
  Alcotest.(check bool) "at most pdef patterns" true (List.length o.Shared.patterns <= 4);
  (* Union coverage: every kernel schedulable under the shared set. *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "covers %s" k.Shared.label)
        true
        (Select.covers_all_colors k.Shared.graph o.Shared.patterns))
    kernels;
  Alcotest.(check int) "one entry per kernel" 3 (List.length o.Shared.per_kernel_cycles);
  Alcotest.(check int) "total is the sum" o.Shared.total_cycles
    (List.fold_left (fun acc (_, c) -> acc + c) 0 o.Shared.per_kernel_cycles);
  (* Reported cycles are real. *)
  List.iter2
    (fun k (label, cycles) ->
      Alcotest.(check string) "order preserved" k.Shared.label label;
      Alcotest.(check int)
        (Printf.sprintf "cycles of %s" label)
        cycles
        (Schedule.cycles (Mp.schedule ~patterns:o.Shared.patterns k.Shared.graph).Mp.schedule))
    kernels o.Shared.per_kernel_cycles

let test_shared_pinned () =
  (* The suite's jointly selected set and its per-kernel cycles. *)
  let o = Shared.select ~pdef:4 (suite ()) in
  Alcotest.(check (list string)) "patterns" [ "acccc"; "abbcc"; "aabbb"; "aaacc" ]
    (List.map Pattern.to_string o.Shared.patterns);
  Alcotest.(check (list (pair string int))) "cycles"
    [ ("3dft", 6); ("w5dft", 10); ("fir", 7) ]
    o.Shared.per_kernel_cycles;
  Alcotest.(check int) "total" 23 o.Shared.total_cycles

let test_shared_single_kernel_consistent () =
  (* With one kernel, shared selection degenerates to the paper's: same
     patterns in the same order on every base-corpus graph but dct8 (the
     slowest to classify), at pdef 1-6. *)
  List.iter
    (fun (label, graph) ->
      if label <> "dct8" then begin
        let k = Shared.kernel ~span_limit:1 ~label graph in
        for pdef = 1 to 6 do
          Alcotest.(check (list string))
            (Printf.sprintf "%s pdef=%d" label pdef)
            (List.map Pattern.to_string (Select.select ~pdef k.Shared.classify))
            (List.map Pattern.to_string (Shared.select ~pdef [ k ]).Shared.patterns)
        done
      end)
    (Mps_workloads.Suite.graphs ())

let test_shared_beats_borrowed_patterns () =
  (* A set tuned for one kernel, used on a foreign kernel suite, should not
     beat the jointly selected set in total cycles (on this suite). *)
  let kernels = suite () in
  let shared = Shared.select ~pdef:4 kernels in
  let first = List.hd kernels in
  let borrowed = Select.select ~pdef:4 first.Shared.classify in
  let total_with patterns =
    List.fold_left
      (fun acc k ->
        match Mp.schedule ~patterns k.Shared.graph with
        | { Mp.schedule = s; _ } -> acc + Schedule.cycles s
        | exception Mp.Unschedulable _ -> acc + 1000)
      0 kernels
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d <= borrowed %d" shared.Shared.total_cycles
       (total_with borrowed))
    true
    (shared.Shared.total_cycles <= total_with borrowed)

let test_shared_rejects () =
  Alcotest.check_raises "no kernels" (Invalid_argument "Shared.select: no kernels")
    (fun () -> ignore (Shared.select ~pdef:2 []));
  let k3 = Shared.kernel ~label:"a" ~capacity:3 (Pg.fig4_small ()) in
  let k5 = Shared.kernel ~label:"b" ~capacity:5 (Pg.fig4_small ()) in
  Alcotest.check_raises "capacity clash"
    (Invalid_argument "Shared.select: kernels have differing capacities") (fun () ->
      ignore (Shared.select ~pdef:2 [ k3; k5 ]))

let test_shared_config_table () =
  (* The point of sharing: the whole suite fits one table of pdef entries. *)
  let kernels = suite () in
  let o = Shared.select ~pdef:4 kernels in
  let table =
    List.fold_left
      (fun acc k ->
        let s = (Mp.schedule ~patterns:o.Shared.patterns k.Shared.graph).Mp.schedule in
        List.fold_left
          (fun acc p -> if List.exists (Pattern.equal p) acc then acc else p :: acc)
          acc (Schedule.distinct_patterns s))
      [] kernels
  in
  Alcotest.(check bool) "suite-wide table within pdef" true (List.length table <= 4)

let test_shared_matches_reference () =
  (* Shared scores on the flat kernel's [Select.balance], one coverage
     per kernel: it selects what the list-based loop did, on one, two and
     three kernels, at both ends of alpha. *)
  let kernels = suite () in
  let alpha_zero = { Select.default_params with Select.alpha = 0.0 } in
  List.iter
    (fun ks ->
      List.iter
        (fun params ->
          for pdef = 1 to 6 do
            Alcotest.(check (list string))
              (Printf.sprintf "%s pdef=%d alpha=%g"
                 (String.concat "+" (List.map (fun k -> k.Shared.label) ks))
                 pdef params.Select.alpha)
              (List.map Pattern.to_string (Select_ref.shared_patterns ~params ~pdef ks))
              (List.map Pattern.to_string (Shared.select ~params ~pdef ks).Shared.patterns)
          done)
        [ Select.default_params; alpha_zero ])
    [ [ List.hd kernels ]; List.tl kernels; kernels ]

let () =
  Alcotest.run "shared"
    [
      ( "shared-selection",
        [
          Alcotest.test_case "basics" `Quick test_shared_basics;
          Alcotest.test_case "three-kernel suite pinned" `Quick test_shared_pinned;
          Alcotest.test_case "single kernel = paper" `Quick
            test_shared_single_kernel_consistent;
          Alcotest.test_case "beats borrowed patterns" `Quick
            test_shared_beats_borrowed_patterns;
          Alcotest.test_case "rejections" `Quick test_shared_rejects;
          Alcotest.test_case "suite-wide config table" `Quick test_shared_config_table;
          Alcotest.test_case "= list-based reference" `Quick test_shared_matches_reference;
        ] );
    ]
