(* Exact reproduction of the numbers printed in the paper: Table 1 (levels of
   the 3DFT graph) and Table 5 (antichain counts under span limits).  These
   two tables over-constrain the reconstructed Fig. 2 graph, so passing them
   is the evidence that the reconstruction is faithful (DESIGN.md §2). *)

module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Pg = Mps_workloads.Paper_graphs
module Enumerate = Mps_antichain.Enumerate

let test_graph_shape () =
  let g = Pg.fig2_3dft () in
  Alcotest.(check int) "node count" 24 (Dfg.node_count g);
  Alcotest.(check int) "edge count" 22 (Dfg.edge_count g);
  let counts =
    List.map (fun (c, k) -> (Mps_dfg.Color.to_char c, k)) (Dfg.color_counts g)
  in
  Alcotest.(check (list (pair char int)))
    "color histogram: 14 adds, 4 subs, 6 muls"
    [ ('a', 14); ('b', 4); ('c', 6) ]
    counts;
  Alcotest.(check int) "6 external inputs" 6 (List.length (Dfg.sources g));
  Alcotest.(check int) "6 outputs" 6 (List.length (Dfg.sinks g))

let test_table1 () =
  let g = Pg.fig2_3dft () in
  let lv = Levels.compute g in
  Alcotest.(check int) "ASAPmax" 4 (Levels.asap_max lv);
  List.iter
    (fun (name, (asap, alap, height)) ->
      let i = Dfg.find g name in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "levels of %s" name)
        (asap, alap, height)
        (Levels.asap lv i, Levels.alap lv i, Levels.height lv i))
    Pg.table1

let test_table1_covers_all_but_c12_c14 () =
  let g = Pg.fig2_3dft () in
  let listed = List.map fst Pg.table1 in
  let missing =
    List.filter (fun i -> not (List.mem (Dfg.name g i) listed)) (Dfg.nodes g)
    |> List.map (Dfg.name g)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "paper omits exactly c12 and c14" [ "c12"; "c14" ] missing

let test_c12_c14_levels () =
  (* Not printed by the paper, but implied by Table 2's candidate lists:
     both are inner multiplications at (2,2) with height 3. *)
  let g = Pg.fig2_3dft () in
  let lv = Levels.compute g in
  List.iter
    (fun name ->
      let i = Dfg.find g name in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "levels of %s" name)
        (2, 2, 3)
        (Levels.asap lv i, Levels.alap lv i, Levels.height lv i))
    [ "c12"; "c14" ]

let test_table5 () =
  let g = Pg.fig2_3dft () in
  let ctx = Enumerate.make_ctx g in
  let m = Enumerate.count_matrix ~max_size:5 ~max_span:4 ctx in
  List.iter
    (fun (limit, expected) ->
      Array.iteri
        (fun idx want ->
          let size = idx + 1 in
          Alcotest.(check int)
            (Printf.sprintf "antichains of size %d with span<=%d" size limit)
            want
            m.(limit).(size))
        expected)
    Pg.table5

let test_table5_unlimited_equals_span4 () =
  (* The graph's levels span 0..4, so limit 4 is no limit at all. *)
  let g = Pg.fig2_3dft () in
  let ctx = Enumerate.make_ctx g in
  let unlimited = Array.make 6 0 in
  Enumerate.iter ~max_size:5 ctx ~f:(fun a ->
      let s = Mps_antichain.Antichain.size a in
      unlimited.(s) <- unlimited.(s) + 1);
  let m = Enumerate.count_matrix ~max_size:5 ~max_span:4 ctx in
  for s = 1 to 5 do
    Alcotest.(check int) (Printf.sprintf "size %d" s) m.(4).(s) unlimited.(s)
  done

let test_fig4_shape () =
  let g = Pg.fig4_small () in
  Alcotest.(check int) "nodes" 5 (Dfg.node_count g);
  let lv = Levels.compute g in
  Alcotest.(check int) "ASAPmax" 2 (Levels.asap_max lv);
  (* No {a,b}-colored antichain exists: §5.2's Pdef=1 discussion. *)
  let ctx = Enumerate.make_ctx g in
  let mixed = ref 0 in
  Enumerate.iter ~max_size:5 ctx ~f:(fun ac ->
      let p = Mps_antichain.Antichain.pattern g ac in
      let has c = Mps_pattern.Pattern.mem p c in
      if has Mps_dfg.Color.add && has Mps_dfg.Color.sub then incr mixed);
  Alcotest.(check int) "no mixed-color antichain" 0 !mixed

let test_table2_invariant_content () =
  (* Table 2's per-cycle color bags and pattern choices are invariant under
     the graph's mirror symmetry (the only ambiguity the unspecified
     tie-breaks leave) and must reproduce exactly. *)
  let g = Pg.fig2_3dft () in
  let p1, p2 = Pg.section4_patterns in
  let r =
    Mps_scheduler.Multi_pattern.schedule ~trace:true
      ~patterns:[ Mps_pattern.Pattern.of_string p1; Mps_pattern.Pattern.of_string p2 ]
      g
  in
  let sched = r.Mps_scheduler.Multi_pattern.schedule in
  Alcotest.(check int) "row count" (List.length Pg.table2)
    (Mps_scheduler.Schedule.cycles sched);
  List.iteri
    (fun c (bag, chosen) ->
      Alcotest.(check string)
        (Printf.sprintf "cycle %d color bag" (c + 1))
        bag
        (Mps_pattern.Pattern.to_string (Mps_scheduler.Schedule.used_at g sched c));
      let row = List.nth r.Mps_scheduler.Multi_pattern.trace c in
      Alcotest.(check int)
        (Printf.sprintf "cycle %d chosen pattern" (c + 1))
        chosen
        (row.Mps_scheduler.Multi_pattern.row_chosen + 1))
    Pg.table2

let () =
  Alcotest.run "paper_tables"
    [
      ( "fig2-3dft",
        [
          Alcotest.test_case "graph shape" `Quick test_graph_shape;
          Alcotest.test_case "table 1 exact" `Quick test_table1;
          Alcotest.test_case "table 1 omissions" `Quick test_table1_covers_all_but_c12_c14;
          Alcotest.test_case "c12/c14 implied levels" `Quick test_c12_c14_levels;
          Alcotest.test_case "table 5 exact" `Quick test_table5;
          Alcotest.test_case "table 5 limit-4 = unlimited" `Quick
            test_table5_unlimited_equals_span4;
          Alcotest.test_case "table 2 invariant content exact" `Quick
            test_table2_invariant_content;
        ] );
      ( "fig4-small",
        [ Alcotest.test_case "shape and mixed antichains" `Quick test_fig4_shape ] );
    ]
