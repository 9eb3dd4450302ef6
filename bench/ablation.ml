(* Ablation studies over the design choices the paper calls out: the F2
   refinement of the pattern priority (§4.2), the span limit (§5.1), the
   alpha size bonus and balancing denominator (§5.2), and the selection
   algorithm against cheaper pattern sources and the certified optimum. *)

module T = Mps_util.Ascii_table
module Rng = Mps_util.Rng
module Mstats = Mps_util.Mstats
module Dfg = Core.Dfg
module Pattern = Core.Pattern
module Enumerate = Core.Enumerate
module Classify = Core.Classify
module Select = Core.Select
module Random_select = Core.Random_select
module Exact = Core.Exact
module Pattern_source = Core.Pattern_source
module Mp = Core.Multi_pattern
module Schedule = Core.Schedule
module Cluster = Core.Cluster
module Config_space = Core.Config_space
module Pg = Core.Paper_graphs
module Dft = Core.Dft
module Kernels = Core.Kernels
module Program = Core.Program

let capacity = Pg.montium_capacity

let section title = Printf.printf "\n=== %s ===\n" title

let workloads () =
  [
    ("3dft(paper)", Pg.fig2_3dft ());
    ("w5dft", Program.dfg (Dft.winograd5 ()));
    ("fft8", Program.dfg (Dft.radix2_fft ~n:8));
    ("dct8", Program.dfg (Kernels.dct8 ()));
    (* Width is the enemy of enumeration (a layer of k parallel ops alone
       holds C(k,5) antichains), so the wide kernels stay modest. *)
    ( "fir8x4",
      Program.dfg
        (Kernels.fir ~taps:(List.init 8 (fun i -> 1.0 /. float_of_int (i + 1))) ~block:4) );
    ("matmul3", Program.dfg (Kernels.matmul ~m:3 ~k:3 ~n:3));
  ]

let cycles_of ?priority patterns g =
  Schedule.cycles (Mp.schedule ?priority ~patterns g).Mp.schedule

let select_cycles ?params ?priority ~span_limit ~pdef g =
  let cls = Classify.compute ?span_limit ~budget:3_000_000 ~capacity (Enumerate.make_ctx g) in
  let pats = Select.select ?params ~pdef cls in
  cycles_of ?priority pats g

(* F1 vs F2 pattern priority, same selected patterns. *)
let f1_vs_f2 () =
  section "Ablation: pattern priority F1 (count) vs F2 (priority sum)";
  let t = T.create ~header:[ "workload"; "nodes"; "F1 cycles"; "F2 cycles" ] () in
  List.iter
    (fun (name, g) ->
      let cls = Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity (Enumerate.make_ctx g) in
      let pats = Select.select ~pdef:4 cls in
      T.add_row t
        [
          name;
          string_of_int (Dfg.node_count g);
          string_of_int (cycles_of ~priority:Mp.F1 pats g);
          string_of_int (cycles_of ~priority:Mp.F2 pats g);
        ])
    (workloads ());
  T.print t

(* Span limit sweep: enumeration size vs selection quality. *)
let span_sweep () =
  section "Ablation: span limit vs antichain count and schedule quality (Pdef=4)";
  let t =
    T.create
      ~header:[ "workload"; "span"; "antichains"; "pool"; "cycles"; "enum ms" ]
      ()
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun span_limit ->
          let t0 = Sys.time () in
          let cls =
            Classify.compute ?span_limit ~budget:3_000_000 ~capacity (Enumerate.make_ctx g)
          in
          let ms = (Sys.time () -. t0) *. 1000.0 in
          let pats = Select.select ~pdef:4 cls in
          T.add_row t
            [
              name;
              (match span_limit with None -> "inf" | Some l -> string_of_int l);
              string_of_int (Classify.total_antichains cls);
              string_of_int (Classify.pattern_count cls);
              string_of_int (cycles_of pats g);
              Printf.sprintf "%.1f" ms;
            ])
        [ Some 0; Some 1; Some 2; Some 3; None ])
    [ List.nth (workloads ()) 0; List.nth (workloads ()) 1; List.nth (workloads ()) 2 ];
  T.print t

(* Alpha and the balancing denominator. *)
let selection_terms () =
  section "Ablation: selection priority terms (Pdef=4, span 1)";
  let t =
    T.create
      ~header:[ "workload"; "full eq.8"; "alpha=0"; "no balancing (eps=1e9)" ]
      ()
  in
  List.iter
    (fun (name, g) ->
      let full = select_cycles ~span_limit:(Some 1) ~pdef:4 g in
      let no_alpha =
        select_cycles
          ~params:{ Select.default_params with Select.alpha = 0.0 }
          ~span_limit:(Some 1) ~pdef:4 g
      in
      let no_balance =
        (* A huge epsilon drowns the per-node damping so the first addend
           degenerates to (total antichains)/eps: ranking by raw counts. *)
        select_cycles
          ~params:{ Select.default_params with Select.epsilon = 1e9 }
          ~span_limit:(Some 1) ~pdef:4 g
      in
      T.add_row t
        [ name; string_of_int full; string_of_int no_alpha; string_of_int no_balance ])
    (workloads ());
  T.print t

(* Selection algorithm vs other pattern sources. *)
let selector_battle () =
  section "Ablation: pattern sources (Pdef=4, span 1, random = avg of 10)";
  let t =
    T.create
      ~header:
        [ "workload"; "eq.8 selected"; "fds harvest"; "greedy harvest"; "random" ]
      ()
  in
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun (name, g) ->
      let cls = Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity (Enumerate.make_ctx g) in
      let ev = Core.Eval.make g in
      let eq8 = Core.Eval.cycles ev (Select.select ~pdef:4 cls) in
      let fds =
        Core.Eval.cycles ev
          (Pattern_source.harvest ~method_:Pattern_source.Force_directed ~capacity
             ~pdef:4 g)
      in
      let gh =
        Core.Eval.cycles ev
          (Pattern_source.harvest ~method_:Pattern_source.Greedy ~capacity ~pdef:4 g)
      in
      let rand =
        Mstats.mean
          (Array.of_list
             (List.map float_of_int
                (Random_select.trial_cycles rng ~eval:ev ~runs:10 ~capacity ~pdef:4)))
      in
      T.add_row t
        [
          name; string_of_int eq8; string_of_int fds; string_of_int gh;
          Printf.sprintf "%.1f" rand;
        ])
    (workloads ());
  T.print t

(* Heuristic vs the certified optimum on the small instances. *)
let oracle_gap () =
  section "Ablation: heuristic vs exact optimum (small graphs)";
  let t =
    T.create ~header:[ "workload"; "pdef"; "heuristic"; "oracle"; "sets tried" ] ()
  in
  List.iter
    (fun (name, g, pdef, span_limit) ->
      let cls = Classify.compute ?span_limit ~budget:3_000_000 ~capacity (Enumerate.make_ctx g) in
      let h = cycles_of (Select.select ~pdef cls) g in
      let o = Exact.search ~pdef cls in
      T.add_row t
        [
          name;
          string_of_int pdef;
          string_of_int h;
          string_of_int o.Exact.optimal_cycles
          ^ (if o.Exact.proven then "" else "(unproven)");
          string_of_int o.Exact.stats.Exact.evaluated;
        ])
    [
      ("fig4", Pg.fig4_small (), 2, None);
      ("3dft(paper)", Pg.fig2_3dft (), 2, Some 0);
      ("3dft(paper)", Pg.fig2_3dft (), 3, Some 0);
    ];
  T.print t

(* List heuristic vs exact optimum vs annealed pattern search. *)
let scheduler_and_search_gap () =
  section "Extension: list heuristic vs optimal schedule vs annealed patterns";
  let t =
    T.create
      ~header:
        [ "workload"; "pdef"; "heuristic sel+list"; "same pats optimal"; "annealed pats"; "sa evals" ]
      ()
  in
  let rng = Rng.create ~seed:99 in
  List.iter
    (fun (name, g, pdef) ->
      let cls = Classify.compute ~span_limit:1 ~capacity (Enumerate.make_ctx g) in
      let pats = Select.select ~pdef cls in
      let heuristic = cycles_of pats g in
      let opt = Core.Optimal.schedule ~max_states:400_000 ~patterns:pats g in
      let sa = Core.Annealing.search ~iterations:1500 rng ~pdef cls in
      T.add_row t
        [
          name;
          string_of_int pdef;
          string_of_int heuristic;
          Printf.sprintf "%d%s" opt.Core.Optimal.cycles
            (if opt.Core.Optimal.proven_optimal then "" else "?");
          string_of_int sa.Core.Annealing.cycles;
          string_of_int sa.Core.Annealing.evaluations;
        ])
    [
      ("3dft(paper)", Pg.fig2_3dft (), 2);
      ("3dft(paper)", Pg.fig2_3dft (), 4);
      ("w5dft", Program.dfg (Dft.winograd5 ()), 4);
    ];
  T.print t

(* Tree-height reduction before lowering. *)
let rebalance_ablation () =
  section "Extension: tree-height reduction (left-deep sums vs rebalanced)";
  let t =
    T.create
      ~header:[ "kernel"; "plain depth"; "balanced depth"; "plain cycles"; "balanced cycles" ]
      ()
  in
  let bindings_fir taps block =
    let x i = Mps_frontend.Expr.var (Printf.sprintf "x%d" i) in
    List.init block (fun out ->
        let terms =
          List.mapi
            (fun k c ->
              let idx = out + List.length taps - 1 - k in
              Mps_frontend.Expr.(const c * x idx))
            taps
        in
        let sum =
          match terms with
          | first :: rest -> List.fold_left Mps_frontend.Expr.( + ) first rest
          | [] -> assert false
        in
        (Printf.sprintf "y%d" out, sum))
  in
  let dot_product k =
    let terms =
      List.init k (fun i ->
          Mps_frontend.Expr.(
            var (Printf.sprintf "a%d" i) * var (Printf.sprintf "b%d" i)))
    in
    let sum =
      match terms with
      | first :: rest -> List.fold_left Mps_frontend.Expr.( + ) first rest
      | [] -> assert false
    in
    [ ("y", sum) ]
  in
  List.iter
    (fun (name, bindings) ->
      let plain = Mps_frontend.Lower.lower bindings in
      let balanced = Core.Rebalance.program bindings in
      let info p =
        let g = Program.dfg p in
        ( Mps_dfg.Levels.lower_bound_cycles (Mps_dfg.Levels.compute g),
          select_cycles ~span_limit:(Some 1) ~pdef:4 g )
      in
      let pd, pc = info plain in
      let bd, bc = info balanced in
      T.add_row t
        [ name; string_of_int pd; string_of_int bd; string_of_int pc; string_of_int bc ])
    [
      ("fir12x2", bindings_fir (List.init 12 (fun i -> 1.0 /. float_of_int (i + 1))) 2);
      ("dot16", dot_product 16);
      ("dot32", dot_product 32);
    ];
  T.print t

(* Clustering on/off. *)
let clustering () =
  section "Ablation: MAC clustering before scheduling (Pdef=4, span 1)";
  let t =
    T.create
      ~header:[ "workload"; "nodes"; "plain cycles"; "clustered nodes"; "clustered cycles" ]
      ()
  in
  List.iter
    (fun (name, g) ->
      let plain = select_cycles ~span_limit:(Some 1) ~pdef:4 g in
      let c = Cluster.mac g in
      let clustered = select_cycles ~span_limit:(Some 1) ~pdef:4 c.Cluster.clustered in
      T.add_row t
        [
          name;
          string_of_int (Dfg.node_count g);
          string_of_int plain;
          string_of_int (Dfg.node_count c.Cluster.clustered);
          string_of_int clustered;
        ])
    (workloads ());
  T.print t

(* Beam width sweep: how much does lookahead buy over the greedy pick? *)
let beam_sweep () =
  section "Extension: beam-search selection width sweep (Pdef=4, span 1)";
  let t =
    T.create ~header:[ "workload"; "greedy(w=1)"; "w=2"; "w=4"; "w=8"; "sets scheduled(w=8)" ] ()
  in
  List.iter
    (fun (name, g) ->
      let cls =
        Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity
          (Enumerate.make_ctx g)
      in
      let at width = Core.Beam.search ~width ~pdef:4 cls in
      let w1 = at 1 and w2 = at 2 and w4 = at 4 and w8 = at 8 in
      T.add_row t
        [
          name;
          string_of_int w1.Core.Beam.cycles;
          string_of_int w2.Core.Beam.cycles;
          string_of_int w4.Core.Beam.cycles;
          string_of_int w8.Core.Beam.cycles;
          string_of_int w8.Core.Beam.evaluated_sets;
        ])
    (workloads ());
  T.print t

(* The paper's Table 7 protocol at scale: many random layered DAGs instead
   of two hand workloads; reports how often and by how much selection wins. *)
let random_workload_sweep () =
  section
    "Extension: Table-7 protocol over 20 random DAGs (Pdef=4, span 1, random = avg of 10)";
  let t =
    T.create
      ~header:[ "graphs"; "selected wins"; "ties"; "losses"; "mean gain (cycles)"; "mean gain (%)" ]
      ()
  in
  let rng = Rng.create ~seed:2026 in
  let gains = ref [] in
  let wins = ref 0 and ties = ref 0 and losses = ref 0 in
  let graphs = 20 in
  for seed = 1 to graphs do
    let params =
      { Core.Random_dag.default_params with Core.Random_dag.layers = 8; width = 5 }
    in
    let g = Core.Random_dag.generate ~params ~seed () in
    let cls =
      Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity (Enumerate.make_ctx g)
    in
    let ev = Core.Eval.make g in
    let sel = Core.Eval.cycles ev (Select.select ~pdef:4 cls) in
    let rand_avg =
      Mstats.mean
        (Array.of_list
           (List.map float_of_int
              (Random_select.trial_cycles rng ~eval:ev ~runs:10 ~capacity ~pdef:4)))
    in
    let gain = rand_avg -. float_of_int sel in
    gains := (gain, gain /. rand_avg *. 100.0) :: !gains;
    if gain > 0.05 then incr wins
    else if gain < -0.05 then incr losses
    else incr ties
  done;
  let abs_gains = Array.of_list (List.map fst !gains) in
  let rel_gains = Array.of_list (List.map snd !gains) in
  T.add_row t
    [
      string_of_int graphs;
      string_of_int !wins;
      string_of_int !ties;
      string_of_int !losses;
      Printf.sprintf "%.2f +/- %.2f" (Mstats.mean abs_gains) (Mstats.stddev abs_gains);
      Printf.sprintf "%.1f%%" (Mstats.mean rel_gains);
    ];
  T.print t

(* Software pipelining: streaming II vs single-shot schedule length. *)
let pipelining () =
  section "Extension: modulo scheduling (streaming II vs single-shot cycles)";
  let t =
    T.create
      ~header:[ "workload"; "single-shot"; "MII"; "achieved II"; "speedup"; "prologue" ]
      ()
  in
  List.iter
    (fun (name, g) ->
      let cls =
        Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity
          (Enumerate.make_ctx g)
      in
      let patterns = Select.select ~pdef:4 cls in
      let single = cycles_of patterns g in
      let loop = Core.Loop_graph.make g [] in
      match Core.Modulo.schedule ~budget_factor:64 ~patterns loop with
      | m ->
          T.add_row t
            [
              name;
              string_of_int single;
              string_of_int (Core.Loop_graph.mii loop ~patterns);
              string_of_int m.Core.Modulo.ii;
              Printf.sprintf "%.2fx"
                (float_of_int single /. float_of_int m.Core.Modulo.ii);
              string_of_int (m.Core.Modulo.makespan - m.Core.Modulo.ii);
            ]
      | exception Core.Modulo.No_schedule _ ->
          T.add_row t [ name; string_of_int single; "-"; "none"; "-"; "-" ])
    (workloads ());
  T.print t

(* Shared pattern tables across a kernel suite. *)
let shared_tables () =
  section "Extension: one pattern table for a kernel suite (Pdef=4, span 1)";
  let kernels =
    [
      Core.Shared.kernel ~span_limit:1 ~label:"3dft" (Pg.fig2_3dft ());
      Core.Shared.kernel ~span_limit:1 ~label:"w5dft" (Program.dfg (Dft.winograd5 ()));
      Core.Shared.kernel ~span_limit:1 ~label:"dct8" (Program.dfg (Kernels.dct8 ()));
    ]
  in
  let total patterns =
    List.fold_left
      (fun acc k ->
        match Mp.schedule ~patterns k.Core.Shared.graph with
        | r -> acc + Schedule.cycles r.Mp.schedule
        | exception Mp.Unschedulable _ -> acc + 999)
      0 kernels
  in
  let shared = Core.Shared.select ~pdef:4 kernels in
  let t = T.create ~header:[ "pattern source"; "total cycles (3 kernels)" ] () in
  T.add_row t [ "jointly selected"; string_of_int shared.Core.Shared.total_cycles ];
  List.iter
    (fun donor ->
      let borrowed = Select.select ~pdef:4 donor.Core.Shared.classify in
      T.add_row t
        [
          Printf.sprintf "borrowed from %s" donor.Core.Shared.label;
          string_of_int (total borrowed);
        ])
    kernels;
  T.print t

(* Fixed-point precision sweep on the DSP kernels. *)
let precision_sweep () =
  section "Extension: 16-bit fixed-point precision (max abs error vs float)";
  let t =
    T.create ~header:[ "kernel"; "Q.8"; "Q.10"; "Q.12"; "Q.14" ] ()
  in
  let kernels =
    [
      ( "w3dft",
        Dft.winograd3 (),
        Dft.input_env [| (0.5, -0.25); (0.3, 0.8); (-0.6, 0.1) |] );
      ( "fir4",
        Kernels.fir ~taps:[ 0.25; 0.5; -0.125; 0.25 ] ~block:4,
        fun name ->
          sin (float_of_int (1 + int_of_string (String.sub name 1 (String.length name - 1)))) );
      ( "dct8",
        Kernels.dct8 (),
        fun name -> 0.2 *. cos (float_of_int (int_of_string (String.sub name 1 1))) );
    ]
  in
  List.iter
    (fun (name, prog, env) ->
      T.add_row t
        (name
        :: List.map
             (fun f ->
               let r = Core.Fixed_point.compare_against_float (Core.Fixed_point.q f) prog ~env in
               Printf.sprintf "%.2e%s" r.Core.Fixed_point.max_abs
                 (if r.Core.Fixed_point.saturated then "!" else ""))
             [ 8; 10; 12; 14 ]))
    kernels;
  T.print t;
  print_endline "('!' marks runs where an intermediate saturated)"

(* Portfolio: which strategy wins where? *)
let portfolio_wins () =
  section "Extension: selector portfolio (winner per workload, Pdef=4, span 1)";
  let t = T.create ~header:[ "workload"; "winner"; "cycles"; "eq8 cycles"; "strategies" ] () in
  List.iter
    (fun (name, g) ->
      let cls =
        Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity
          (Enumerate.make_ctx g)
      in
      let rng = Rng.create ~seed:31 in
      let o = Core.Portfolio.run ~annealing:(rng, 600) ~pdef:4 cls in
      let eq8 =
        List.find (fun e -> e.Core.Portfolio.strategy = "eq8") o.Core.Portfolio.all
      in
      T.add_row t
        [
          name;
          o.Core.Portfolio.best.Core.Portfolio.strategy;
          string_of_int o.Core.Portfolio.best.Core.Portfolio.cycles;
          string_of_int eq8.Core.Portfolio.cycles;
          string_of_int (List.length o.Core.Portfolio.all);
        ])
    (workloads ());
  T.print t

(* Pdef sweep against the 32-configuration budget. *)
let pdef_sweep () =
  section "Extension: Pdef sweep, cycles and config-table pressure (3DFT & fft8)";
  let t =
    T.create ~header:[ "workload"; "pdef"; "cycles"; "distinct configs"; "reconfigs" ] ()
  in
  List.iter
    (fun (name, g) ->
      let cls = Classify.compute ~span_limit:1 ~budget:3_000_000 ~capacity (Enumerate.make_ctx g) in
      List.iter
        (fun pdef ->
          let pats = Select.select ~pdef cls in
          let sched = (Mp.schedule ~patterns:pats g).Mp.schedule in
          let cfg = Config_space.of_schedule sched in
          T.add_row t
            [
              name;
              string_of_int pdef;
              string_of_int (Schedule.cycles sched);
              string_of_int cfg.Config_space.table_size;
              string_of_int cfg.Config_space.reconfigurations;
            ])
        [ 1; 2; 3; 4; 5; 8; 12 ])
    [ ("3dft(paper)", Pg.fig2_3dft ()); ("fft8", Program.dfg (Dft.radix2_fft ~n:8)) ];
  T.print t

let run_all () =
  f1_vs_f2 ();
  span_sweep ();
  selection_terms ();
  selector_battle ();
  oracle_gap ();
  scheduler_and_search_gap ();
  rebalance_ablation ();
  beam_sweep ();
  random_workload_sweep ();
  pipelining ();
  shared_tables ();
  precision_sweep ();
  portfolio_wins ();
  clustering ();
  pdef_sweep ()
