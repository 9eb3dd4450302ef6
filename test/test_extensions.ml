(* Extensions beyond the paper: simulated-annealing selection, tree-height
   reduction, concrete register/memory assignment, code generation. *)

module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Pattern = Mps_pattern.Pattern
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Select = Mps_select.Select
module Annealing = Mps_select.Annealing
module Mp = Mps_scheduler.Multi_pattern
module Schedule = Mps_scheduler.Schedule
module Expr = Mps_frontend.Expr
module Lower = Mps_frontend.Lower
module Rebalance = Mps_frontend.Rebalance
module Program = Mps_frontend.Program
module Tile = Mps_montium.Tile
module Allocation = Mps_montium.Allocation
module Register_file = Mps_montium.Register_file
module Codegen = Mps_montium.Codegen
module Simulator = Mps_montium.Simulator
module Dft = Mps_workloads.Dft
module Kernels = Mps_workloads.Kernels
module Pg = Mps_workloads.Paper_graphs
module Random_dag = Mps_workloads.Random_dag
module Rng = Mps_util.Rng

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- annealing --- *)

let test_annealing_improves_or_matches () =
  let g = Pg.fig2_3dft () in
  let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g) in
  let rng = Mps_util.Rng.create ~seed:3 in
  List.iter
    (fun pdef ->
      let heuristic = Select.select ~pdef cls in
      let hc = Schedule.cycles (Mp.schedule ~patterns:heuristic g).Mp.schedule in
      let o = Annealing.search ~iterations:500 rng ~pdef cls in
      Alcotest.(check bool)
        (Printf.sprintf "pdef=%d: annealed %d <= heuristic %d" pdef o.Annealing.cycles hc)
        true
        (o.Annealing.cycles <= hc);
      Alcotest.(check int) "pattern count" pdef (List.length o.Annealing.patterns);
      (* The result actually schedules to the reported cost. *)
      Alcotest.(check int) "reported cost is real" o.Annealing.cycles
        (Schedule.cycles (Mp.schedule ~patterns:o.Annealing.patterns g).Mp.schedule))
    [ 2; 3; 4 ]

let test_annealing_deterministic () =
  let g = Pg.fig2_3dft () in
  let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g) in
  let run seed =
    let rng = Mps_util.Rng.create ~seed in
    let o = Annealing.search ~iterations:300 rng ~pdef:3 cls in
    (o.Annealing.cycles, List.map Pattern.to_string o.Annealing.patterns)
  in
  Alcotest.(check (pair int (list string))) "same seed same result" (run 11) (run 11)

let test_annealing_args () =
  let cls =
    Classify.compute ~capacity:5 (Enumerate.make_ctx (Pg.fig4_small ()))
  in
  let rng = Mps_util.Rng.create ~seed:0 in
  Alcotest.check_raises "cooling range"
    (Invalid_argument "Annealing.search: cooling outside (0,1]") (fun () ->
      ignore (Annealing.search ~cooling:1.5 rng ~pdef:2 cls))

(* The walk [Annealing.search] must take: the same draws from the same
   generator, each candidate list costed from scratch by the reference
   scheduler, and the list that is costed is the list that is adopted.
   Returns what the search reports: patterns, cycles, evaluations and
   whether the heuristic start was beaten. *)
let reference_anneal ~iterations rng ~pdef cls =
  let g = Classify.graph cls in
  let pool = Array.of_list (Classify.patterns cls) in
  let evaluations = ref 0 in
  let cost patterns =
    incr evaluations;
    match Mp.cycles ~patterns g with
    | c -> c
    | exception Mp.Unschedulable _ -> max_int
  in
  let start = Select.select ~pdef cls in
  let start_cost = cost start in
  let current = ref (Array.of_list start) and current_cost = ref start_cost in
  let best = ref !current and best_cost = ref start_cost in
  let temperature = ref 2.0 in
  if Array.length pool > 0 && start <> [] then
    for _ = 1 to iterations do
      let slot = Rng.int rng (Array.length !current) in
      let replacement = Rng.choice rng pool in
      if not (Pattern.equal replacement !current.(slot)) then begin
        let candidate = Array.copy !current in
        candidate.(slot) <- replacement;
        let patterns = Array.to_list candidate in
        if Select.covers_all_colors g patterns then begin
          let c = cost patterns in
          let d = float_of_int (c - !current_cost) in
          if
            c < max_int
            && (d <= 0.0 || Rng.float rng 1.0 < exp (-.d /. !temperature))
          then begin
            current := candidate;
            current_cost := c;
            if c < !best_cost then begin
              best := candidate;
              best_cost := c
            end
          end
        end;
        temperature := !temperature *. 0.995
      end
    done;
  ( (List.map Pattern.to_string (Array.to_list !best), !best_cost),
    (!evaluations, !best_cost < start_cost) )

let annealed ~iterations ~seed ~pdef cls =
  let o = Annealing.search ~iterations (Rng.create ~seed) ~pdef cls in
  ( (List.map Pattern.to_string o.Annealing.patterns, o.Annealing.cycles),
    (o.Annealing.evaluations, o.Annealing.improved) )

(* w5dft at Pdef 4 holds a pattern twice on its walk: a swap of the later
   copy must cost the list with the later copy replaced. *)
let test_annealing_costs_adopted_list () =
  let g = Program.dfg (Dft.winograd5 ()) in
  let cls = Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g) in
  let want = reference_anneal ~iterations:2000 (Rng.create ~seed:1) ~pdef:4 cls in
  Alcotest.(check (pair (pair (list string) int) (pair int bool)))
    "w5dft, pdef 4, seed 1" want
    (annealed ~iterations:2000 ~seed:1 ~pdef:4 cls)

let annealing_matches_reference =
  qtest ~count:40 "search = reference walk on random DAGs"
    QCheck2.Gen.(pair (1 -- 1000) (2 -- 4))
    (fun (seed, pdef) ->
      let params =
        { Random_dag.default_params with Random_dag.layers = 4 + (seed mod 4) }
      in
      let g = Random_dag.generate ~params ~seed () in
      let cls =
        Classify.compute ~span_limit:1 ~capacity:5 (Enumerate.make_ctx g)
      in
      reference_anneal ~iterations:1000 (Rng.create ~seed) ~pdef cls
      = annealed ~iterations:1000 ~seed ~pdef cls)

(* --- rebalance --- *)

let env = function
  | "u" -> 2.0
  | "v" -> -1.5
  | "w" -> 0.25
  | name -> float_of_int (String.length name)

let left_deep_sum k =
  List.init k (fun i -> Expr.var (Printf.sprintf "t%d" i))
  |> function
  | first :: rest -> List.fold_left Expr.( + ) first rest
  | [] -> assert false

let test_rebalance_depth () =
  let e = left_deep_sum 16 in
  Alcotest.(check int) "left-deep depth" 15 (Rebalance.depth e);
  Alcotest.(check int) "balanced depth" 4 (Rebalance.depth (Rebalance.expression e))

let test_rebalance_sub_chains () =
  (* a - b - c - d: mixed signs rebuild as (a) - (b+c+d)-ish shapes. *)
  let a = Expr.var "a" and b = Expr.var "b" and c = Expr.var "c" and d = Expr.var "d" in
  let e = Expr.(a - b - c - d) in
  let r = Rebalance.expression e in
  Alcotest.(check bool) "depth shrinks" true (Rebalance.depth r <= Rebalance.depth e);
  let ev e = Expr.eval ~env:(fun _ -> 3.25) e in
  Alcotest.(check (float 1e-9)) "value preserved" (ev e) (ev r)

let test_rebalance_fir_schedule () =
  (* The left-deep FIR sum serializes the schedule; rebalancing recovers
     the logarithmic depth and a shorter schedule. *)
  let taps = List.init 12 (fun i -> 1.0 /. float_of_int (i + 1)) in
  let bindings =
    let x i = Expr.var (Printf.sprintf "x%d" i) in
    let terms = List.mapi (fun k c -> Expr.(const c * x k)) taps in
    let sum =
      match terms with
      | first :: rest -> List.fold_left Expr.( + ) first rest
      | [] -> assert false
    in
    [ ("y", sum) ]
  in
  let plain = Lower.lower bindings in
  let balanced = Rebalance.program bindings in
  let depth p = Levels.lower_bound_cycles (Levels.compute (Program.dfg p)) in
  Alcotest.(check bool) "critical path shrinks" true (depth balanced < depth plain);
  (* Same output up to floating-point reassociation. *)
  let value p = List.assoc "y" (Program.eval ~env p) in
  let v1 = value plain and v2 = value balanced in
  Alcotest.(check bool) "values close" true
    (Float.abs (v1 -. v2) <= 1e-9 *. (1.0 +. Float.abs v1))

let expr_gen =
  let open QCheck2.Gen in
  sized @@ QCheck2.Gen.fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map Expr.var (oneofl [ "u"; "v"; "w" ]);
            map (fun k -> Expr.const (float_of_int k)) (-3 -- 3);
          ]
      else
        oneof
          [
            map2 Expr.( + ) (self (n / 2)) (self (n / 2));
            map2 Expr.( - ) (self (n / 2)) (self (n / 2));
            map2 Expr.( * ) (self (n / 2)) (self (n / 2));
            map Expr.neg (self (n - 1));
          ])

let rebalance_props =
  [
    qtest "rebalance: value preserved (tolerance)" expr_gen (fun e ->
        let v1 = Expr.eval ~env e and v2 = Expr.eval ~env (Rebalance.expression e) in
        (Float.is_nan v1 && Float.is_nan v2)
        || Float.abs (v1 -. v2) <= 1e-6 *. (1.0 +. Float.abs v1));
    qtest "rebalance: depth never increases" expr_gen (fun e ->
        Rebalance.depth (Rebalance.expression e) <= Rebalance.depth e);
    qtest "rebalance: free variables preserved" expr_gen (fun e ->
        Expr.free_vars (Rebalance.expression e) = Expr.free_vars e);
    qtest "rebalance: idempotent on depth" expr_gen (fun e ->
        let once = Rebalance.expression e in
        Rebalance.depth (Rebalance.expression once) = Rebalance.depth once);
  ]

(* --- register file + codegen --- *)

let mapped_winograd3 () =
  let prog = Dft.winograd3 () in
  let sched =
    (Mp.schedule
       ~patterns:[ Pattern.of_string "aabcc"; Pattern.of_string "aabbb" ]
       (Program.dfg prog))
      .Mp.schedule
  in
  let alloc =
    match Allocation.allocate prog sched with
    | Ok a -> a
    | Error m -> Alcotest.failf "allocation: %s" m
  in
  (prog, sched, alloc)

let test_register_assignment () =
  let prog, sched, alloc = mapped_winograd3 () in
  match Register_file.assign prog sched alloc with
  | Error m -> Alcotest.failf "assignment failed: %s" m
  | Ok slots ->
      let g = Program.dfg prog in
      (* Every register-routed operand has a concrete index within the
         file; overlapping lifetimes on one ALU never share an index. *)
      let by_alu_index = Hashtbl.create 16 in
      for j = 0 to Dfg.node_count g - 1 do
        Array.iter
          (function
            | Allocation.From_node { producer; route = Allocation.Register _ } -> (
                let alu = Allocation.alu_of alloc j in
                match Register_file.register_of slots ~producer ~consumer_alu:alu with
                | None -> Alcotest.failf "missing register for %s" (Dfg.name g producer)
                | Some index ->
                    Alcotest.(check bool) "index in range" true
                      (index >= 0 && index < Tile.default.Tile.registers_per_alu);
                    let start = Schedule.cycle_of sched producer + 1 in
                    let stop = Schedule.cycle_of sched j in
                    Hashtbl.add by_alu_index (alu, index) (producer, start, stop))
            | _ -> ())
          (Allocation.sources alloc j)
      done;
      Hashtbl.iter
        (fun key (p1, s1, e1) ->
          Hashtbl.iter
            (fun key' (p2, s2, e2) ->
              if key = key' && p1 <> p2 then
                Alcotest.(check bool) "no lifetime overlap on shared register" false
                  (s1 <= e2 && s2 <= e1))
            by_alu_index)
        by_alu_index;
      Array.iter
        (fun used ->
          Alcotest.(check bool) "file size respected" true
            (used <= Tile.default.Tile.registers_per_alu))
        (Register_file.registers_used slots)

let test_memory_addresses () =
  let prog, sched, alloc = mapped_winograd3 () in
  match Register_file.assign prog sched alloc with
  | Error m -> Alcotest.failf "assignment failed: %s" m
  | Ok slots ->
      Array.iteri
        (fun m words ->
          Alcotest.(check bool)
            (Printf.sprintf "memory %d within size" m)
            true
            (words <= Tile.default.Tile.memory_words))
        (Register_file.memory_words_used slots);
      (* Inputs all have addresses. *)
      let g = Program.dfg prog in
      for j = 0 to Dfg.node_count g - 1 do
        let { Program.operands; _ } = Program.instruction prog j in
        Array.iteri
          (fun k src ->
            match (src, operands.(k)) with
            | Allocation.From_input { memory }, Program.Input name ->
                Alcotest.(check bool)
                  (Printf.sprintf "address for %s" name)
                  true
                  (Register_file.input_address_of slots ~input:name ~memory <> None)
            | _ -> ())
          (Allocation.sources alloc j)
      done

let test_memory_overflow_detected () =
  let tile = { Tile.default with Tile.memory_words = 1 } in
  let prog = Kernels.dct8 () in
  let sched =
    (Mp.schedule ~patterns:[ Pattern.of_string "aaccc" ] (Program.dfg prog)).Mp.schedule
  in
  match Allocation.allocate ~tile prog sched with
  | Error _ -> () (* already failed at routing: acceptable *)
  | Ok alloc -> (
      match Register_file.assign ~tile prog sched alloc with
      | Error m ->
          Alcotest.(check bool) "mentions overflow" true
            (String.length m > 0)
      | Ok slots ->
          (* dct8 has 8 inputs per consumer bank; 1 word cannot hold them
             unless reads are spread across memories, which 2/ALU cannot. *)
          Alcotest.failf "expected overflow, got %d words max"
            (Array.fold_left max 0 (Register_file.memory_words_used slots)))

let test_codegen_roundtrip () =
  let prog, sched, alloc = mapped_winograd3 () in
  match Codegen.generate prog sched alloc with
  | Error m -> Alcotest.failf "codegen: %s" m
  | Ok listing -> (
      match Codegen.parse_summary listing with
      | Error m -> Alcotest.failf "parse: %s" m
      | Ok s ->
          Alcotest.(check int) "cycles" (Schedule.cycles sched) s.Codegen.cycles;
          Alcotest.(check int) "instructions = ops"
            (Dfg.node_count (Program.dfg prog))
            s.Codegen.instructions;
          Alcotest.(check bool) "patterns in table" true (s.Codegen.patterns >= 1);
          Alcotest.(check bool) "inputs listed" true (s.Codegen.inputs >= 6))

let test_codegen_mentions_every_op () =
  let prog, sched, alloc = mapped_winograd3 () in
  match Codegen.generate prog sched alloc with
  | Error m -> Alcotest.failf "codegen: %s" m
  | Ok listing ->
      let g = Program.dfg prog in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      Dfg.iter_nodes
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions %s" (Dfg.name g i))
            true
            (contains listing ("; " ^ Dfg.name g i)))
        g

(* Rebalanced programs still map and simulate correctly end-to-end. *)
let test_rebalanced_end_to_end () =
  let bindings =
    let x i = Expr.var (Printf.sprintf "x%d" i) in
    let sum =
      List.init 10 (fun i ->
          let coeff = float_of_int (i + 1) in
          Expr.(const coeff * x i))
      |> function
      | first :: rest -> List.fold_left Expr.( + ) first rest
      | [] -> assert false
    in
    [ ("y", sum) ]
  in
  let prog = Rebalance.program bindings in
  match Core.Pipeline.map_program prog with
  | Error m -> Alcotest.failf "mapping: %s" m
  | Ok mapped -> (
      let env name = float_of_int (1 + Char.code name.[1] - Char.code '0') in
      match Core.Pipeline.verify mapped ~env with
      | Ok () -> ()
      | Error m -> Alcotest.failf "simulation: %s" m)

let () =
  Alcotest.run "extensions"
    [
      ( "annealing",
        [
          Alcotest.test_case "improves or matches heuristic" `Quick
            test_annealing_improves_or_matches;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic;
          Alcotest.test_case "argument checks" `Quick test_annealing_args;
          Alcotest.test_case "costs the list it adopts (w5dft)" `Quick
            test_annealing_costs_adopted_list;
          annealing_matches_reference;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "depth reduction" `Quick test_rebalance_depth;
          Alcotest.test_case "subtraction chains" `Quick test_rebalance_sub_chains;
          Alcotest.test_case "fir schedule improves" `Quick test_rebalance_fir_schedule;
          Alcotest.test_case "end-to-end on the tile" `Quick test_rebalanced_end_to_end;
        ]
        @ rebalance_props );
      ( "register-file",
        [
          Alcotest.test_case "register assignment" `Quick test_register_assignment;
          Alcotest.test_case "memory addresses" `Quick test_memory_addresses;
          Alcotest.test_case "overflow detected" `Quick test_memory_overflow_detected;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "summary roundtrip" `Quick test_codegen_roundtrip;
          Alcotest.test_case "every op emitted" `Quick test_codegen_mentions_every_op;
        ] );
    ]
