(* mpsched: command-line front door to the multi-pattern scheduling flow.

   Subcommands mirror the compiler phases:

     mpsched levels     GRAPH            -- ASAP/ALAP/Height table
     mpsched antichains GRAPH            -- antichain counts per size/span
     mpsched patterns   GRAPH            -- classified pattern pool
     mpsched select     GRAPH            -- run the selection algorithm
     mpsched schedule   GRAPH -p aabcc -p aaacc   -- multi-pattern scheduling
     mpsched pipeline   GRAPH            -- select + schedule + config report
     mpsched dot        GRAPH            -- DOT export
     mpsched workload   NAME             -- dump a built-in workload as a graph file

   GRAPH is a DFG text file ("node <name> <color>" / "edge <src> <dst>"
   lines), a Graphviz .dot file in the subset Dfg_parse accepts, or any
   name from the built-in workload corpus (3dft, fig4, fft8, dct8, ... —
   `mpsched workload` with no valid name lists all of them).

   Most phase subcommands take --stats (per-phase timing/counter summary on
   stderr) and --trace FILE (Chrome trace-event JSON); neither changes the
   primary output on stdout. *)

module C = Core
module Session = Mps_serve.Session
module Server = Mps_serve.Server
open Cmdliner

(* One table for the wire protocol and the command line: GRAPH accepts
   exactly the names a {"graph": ...} request does. *)
let builtin_graphs = Server.builtins

let load_graph spec =
  match List.assoc_opt spec builtin_graphs with
  | Some f -> Ok (f ())
  | None -> (
      match C.Dfg_parse.load spec with
      | g -> Ok g
      | exception Sys_error m -> Error m
      | exception C.Dfg_parse.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" spec line message)
      | exception C.Dfg.Cycle names ->
          Error (Printf.sprintf "%s: graph has a cycle: %s" spec (String.concat " -> " names)))

let graph_arg =
  let doc =
    "Input graph: a DFG file, or a built-in name ("
    ^ String.concat ", " (List.map fst builtin_graphs)
    ^ ")."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let capacity_arg =
  Arg.(
    value
    & opt int C.Paper_graphs.montium_capacity
    & info [ "C"; "capacity" ] ~docv:"C" ~doc:"Number of parallel ALUs (pattern size).")

let span_arg =
  Arg.(
    value
    & opt (some int) (Some 1)
    & info [ "s"; "span" ] ~docv:"SPAN"
        ~doc:"Antichain span limit; negative means unlimited.")

let span_of = function Some s when s < 0 -> None | other -> other

let pdef_arg =
  Arg.(
    value & opt int 4
    & info [ "n"; "pdef" ] ~docv:"PDEF" ~doc:"Number of patterns to select.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the parallel phases (enumeration, \
           classification, portfolio).  1 (default) runs the exact \
           sequential path; 0 means one per core.  Results are identical \
           for every value.")

let or_fail = function
  | Ok x -> x
  | Error m ->
      prerr_endline ("mpsched: " ^ m);
      exit 1

(* --strategy: the selector choice shared by select and pipeline. *)

let strategy_arg =
  Arg.(
    value & opt string "eq8"
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Selection strategy: $(b,eq8) (the paper's Eq. 8/9 heuristic, \
           the default) or $(b,auto) (per-graph dispatch of one portfolio \
           backend from the graph's feature vector).")

let strategy_of s = or_fail (C.Auto.strategy_of_string s)

(* -p PATTERN operands, validated against the machine capacity so an
   oversized spelling fails with a clear message instead of scheduling
   for a machine that doesn't exist. *)
let parse_patterns ~capacity specs =
  try List.map (C.Pattern.of_string ~capacity) specs
  with Invalid_argument m -> or_fail (Error m)

(* A pool sized by --jobs, or none for the sequential default.  Every
   subcommand funnels through here, so 'byte-identical output for any
   --jobs' is checked by diffing the CLI itself (check.sh does). *)
let with_jobs jobs f =
  if jobs < 0 then or_fail (Error "--jobs must be >= 0");
  let jobs = if jobs = 0 then C.Pool.default_jobs () else jobs in
  if jobs = 1 then f None
  else C.Pool.with_pool ~jobs (fun pool -> f (Some pool))

(* The phase subcommands are thin clients of the serve session layer: a
   one-shot run is a session serving a single request.  The session owns
   classification/eval/ban caches, so the same code path is exercised cold
   here and warm by `mpsched serve` — and stays byte-identical (check.sh
   goldens pin it). *)
let with_session jobs f =
  with_jobs jobs (fun pool -> f (Session.create ?pool ()))

(* --stats / --trace: observability flags shared by the phase subcommands.
   The summary goes to stderr and the trace to a file, so the primary
   output on stdout stays byte-identical whether or not they are given
   (check.sh diffs exactly that). *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print a per-phase timing and counter summary to stderr after \
           the run.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (open in Perfetto or \
           chrome://tracing; validate with $(b,mpsched tracecheck)).")

let with_obs stats trace_out f =
  if (not stats) && trace_out = None then f ()
  else begin
    let obs = C.Obs.create () in
    let r = C.Obs.run obs f in
    if stats then prerr_string (C.Obs.summary_table obs);
    (match trace_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (C.Obs.chrome_trace obs)));
    r
  end

(* --- levels --- *)

let levels_cmd =
  let run spec =
    let g = or_fail (load_graph spec) in
    let lv = C.Levels.compute g in
    let t = C.Ascii_table.create ~header:[ "node"; "asap"; "alap"; "height"; "mobility" ] () in
    List.iter
      (fun i ->
        C.Ascii_table.add_row t
          [
            C.Dfg.name g i;
            string_of_int (C.Levels.asap lv i);
            string_of_int (C.Levels.alap lv i);
            string_of_int (C.Levels.height lv i);
            string_of_int (C.Levels.mobility lv i);
          ])
      (C.Dfg.nodes g);
    C.Ascii_table.print t;
    Printf.printf "critical path: %d cycles\n" (C.Levels.lower_bound_cycles lv)
  in
  Cmd.v (Cmd.info "levels" ~doc:"ASAP/ALAP/Height analysis (paper Table 1)")
    Term.(const run $ graph_arg)

(* --- antichains --- *)

let antichains_cmd =
  let run spec capacity jobs stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    let ctx = C.Enumerate.make_ctx g in
    let lv = C.Enumerate.ctx_levels ctx in
    let max_span = max 0 (C.Levels.asap_max lv) in
    let m =
      with_jobs jobs (fun pool ->
          C.Enumerate.count_matrix ?pool ~max_size:capacity ~max_span ctx)
    in
    let header =
      "span limit" :: List.init capacity (fun s -> Printf.sprintf "size%d" (s + 1))
    in
    let t = C.Ascii_table.create ~header () in
    for l = 0 to max_span do
      C.Ascii_table.add_row t
        (Printf.sprintf "<=%d" l
        :: List.init capacity (fun s -> string_of_int m.(l).(s + 1)))
    done;
    C.Ascii_table.print t
  in
  Cmd.v
    (Cmd.info "antichains" ~doc:"Antichain counts per size and span limit (Table 5)")
    Term.(const run $ graph_arg $ capacity_arg $ jobs_arg $ stats_arg $ trace_out_arg)

(* --- patterns --- *)

let patterns_cmd =
  let run spec capacity span jobs stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    let cls =
      with_jobs jobs (fun pool ->
          C.Classify.compute ?pool ?span_limit:(span_of span) ~capacity
            (C.Enumerate.make_ctx g))
    in
    let t = C.Ascii_table.create ~header:[ "pattern"; "antichains" ] () in
    C.Classify.fold
      (fun p ~count ~freq:_ () ->
        C.Ascii_table.add_row t [ C.Pattern.to_string p; string_of_int count ])
      cls ();
    C.Ascii_table.print t;
    Printf.printf "%d patterns, %d antichains\n" (C.Classify.pattern_count cls)
      (C.Classify.total_antichains cls)
  in
  Cmd.v
    (Cmd.info "patterns" ~doc:"The classified pattern pool (§5.1)")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ jobs_arg $ stats_arg
      $ trace_out_arg)

(* --- select --- *)

let pattern_list ps = String.concat " " (List.map C.Pattern.to_string ps)

let print_exact_stats (ct : C.Exact.certificate) =
  let s = ct.C.Exact.stats in
  Printf.printf
    "search: %d nodes visited, %d sets evaluated, pruned %d span / %d color \
     / %d ban / %d dominance, %d ban entries\n"
    s.C.Exact.nodes_visited s.C.Exact.evaluated s.C.Exact.pruned_span
    s.C.Exact.pruned_color s.C.Exact.pruned_ban s.C.Exact.pruned_dominance
    (List.length ct.C.Exact.bans)

let select_cmd =
  let run spec capacity span pdef strategy verbose certify jobs stats
      trace_out =
    let g = or_fail (load_graph spec) in
    let strategy = strategy_of strategy in
    with_obs stats trace_out @@ fun () ->
    with_session jobs @@ fun sess ->
    let entry, _ = Session.intern sess g in
    (* The phase commands classify unbudgeted, as they always did;
       certification below uses the pipeline default budget — two distinct
       cached families, mirroring the historical double classification. *)
    let sel_options =
      {
        C.Pipeline.default_options with
        C.Pipeline.capacity;
        span_limit = span_of span;
        pdef;
        enumeration_budget = None;
        strategy;
      }
    in
    (match strategy with
    | C.Auto.Paper ->
        let report, _ =
          Session.select_report sess entry ~options:sel_options
        in
        List.iteri
          (fun i step ->
            Printf.printf "%d: %s%s  (priority %.2f)\n" (i + 1)
              (C.Pattern.to_string step.C.Select.chosen)
              (if step.C.Select.fallback then " [fallback]" else "")
              step.C.Select.priority;
            if verbose then
              List.iter
                (fun (p, f) ->
                  Printf.printf "     %-8s %.2f\n" (C.Pattern.to_string p) f)
                step.C.Select.priorities)
          report.C.Select.steps
    | C.Auto.Auto table ->
        let o, _ =
          Session.auto_select sess entry ~options:sel_options ~rules:table
        in
        Printf.printf "backend: %s  (rule %d: %s)\n" o.C.Auto.backend
          o.C.Auto.rule_index o.C.Auto.rule.C.Auto.provenance;
        Printf.printf "patterns: %s\n" (pattern_list o.C.Auto.patterns);
        if o.C.Auto.cycles = max_int then print_endline "unschedulable"
        else Printf.printf "%d cycles\n" o.C.Auto.cycles;
        if verbose then Format.printf "%a@." C.Features.pp o.C.Auto.features);
    if certify then begin
      let options =
        {
          C.Pipeline.default_options with
          C.Pipeline.capacity;
          span_limit = span_of span;
          pdef;
        }
      in
      let cert, _ = Session.certify sess g ~options () in
      let ct = cert.C.Pipeline.exact in
      Printf.printf "heuristic: %s  %d cycles\n"
        (pattern_list cert.C.Pipeline.heuristic)
        cert.C.Pipeline.heuristic_cycles;
      if ct.C.Exact.optimal_cycles = max_int then
        print_endline "exact:     no schedulable pattern set in the family"
      else
        Printf.printf "exact:     %s  %d cycles  (%s)\n"
          (pattern_list ct.C.Exact.optimal)
          ct.C.Exact.optimal_cycles
          (if ct.C.Exact.proven then "proven optimal"
           else "upper bound: node cap hit");
      Printf.printf "gap: %.1f%%\n" cert.C.Pipeline.gap_percent;
      print_exact_stats ct
    end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every candidate's priority.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "After the heuristic selection, run the exact branch-and-bound \
             seeded with it and report the optimality gap and the search \
             certificate.")
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Run the pattern selection algorithm (§5.2)")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg
      $ strategy_arg $ verbose $ certify $ jobs_arg $ stats_arg
      $ trace_out_arg)

(* --- exact --- *)

let exact_cmd =
  let run spec capacity span pdef max_nodes no_prune jobs stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    with_session jobs @@ fun sess ->
    let entry, _ = Session.intern sess g in
    let options =
      {
        C.Pipeline.default_options with
        C.Pipeline.capacity;
        span_limit = span_of span;
        pdef;
        enumeration_budget = None;
      }
    in
    let pruning =
      if no_prune then C.Exact.no_pruning else C.Exact.all_pruning
    in
    let ct, _ = Session.exact sess entry ~options ~pruning ~max_nodes () in
    if ct.C.Exact.optimal_cycles = max_int then
      print_endline "no schedulable pattern set in the family"
    else begin
      Printf.printf "optimal: %s\n" (pattern_list ct.C.Exact.optimal);
      Printf.printf "%d cycles  (%s)\n" ct.C.Exact.optimal_cycles
        (if ct.C.Exact.proven then "proven optimal"
         else "upper bound: node cap hit")
    end;
    print_exact_stats ct
  in
  let max_nodes =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Node budget per root subtree; when hit the result degrades to \
             an upper bound and the certificate is marked unproven.")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable every pruning rule (pure enumeration) — the baseline \
             the pruning counters are measured against.")
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:
         "Certified-optimal pattern selection by branch-and-bound over the \
          classified pool")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg $ max_nodes
      $ no_prune $ jobs_arg $ stats_arg $ trace_out_arg)

(* --- schedule --- *)

let schedule_cmd =
  let run spec capacity span pdef jobs patterns trace stats trace_out =
    let g = or_fail (load_graph spec) in
    let explicit = parse_patterns ~capacity patterns in
    with_obs stats trace_out @@ fun () ->
    with_session jobs @@ fun sess ->
    let entry, _ = Session.intern sess g in
    let options =
      {
        C.Pipeline.default_options with
        C.Pipeline.capacity;
        span_limit = span_of span;
        pdef;
        enumeration_budget = None;
      }
    in
    (* With no -p the selection algorithm picks Pdef first, so a bare
       "mpsched schedule GRAPH" runs the paper's whole flow. *)
    match Session.schedule sess entry ~options ~trace ~patterns:explicit () with
    | exception C.Multi_pattern.Unschedulable colors ->
        or_fail
          (Error
             (Printf.sprintf "patterns cannot cover colors: %s"
                (String.concat ", " (List.map C.Color.to_string colors))))
    | pats, r, _ ->
        if patterns = [] then
          Printf.printf "patterns: %s\n"
            (String.concat " " (List.map C.Pattern.to_string pats));
        if trace then
          Format.printf "%a@." (C.Multi_pattern.pp_trace g) r.C.Eval.trace;
        Format.printf "%a@." (C.Schedule.pp g) r.C.Eval.schedule;
        Printf.printf "%d cycles\n" (C.Schedule.cycles r.C.Eval.schedule)
  in
  let patterns =
    Arg.(
      value & opt_all string []
      & info [ "p"; "pattern" ] ~docv:"PATTERN"
          ~doc:
            "Allowed pattern, e.g. aabcc (repeatable).  Omitted: run the \
             selection algorithm first.")
  in
  (* -t only: --trace is the Chrome-trace output shared with the other
     subcommands. *)
  let trace =
    Arg.(value & flag & info [ "t" ] ~doc:"Print the per-cycle trace (Table 2).")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Multi-pattern list scheduling (§4)")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg $ jobs_arg
      $ patterns $ trace $ stats_arg $ trace_out_arg)

(* --- pipeline --- *)

let pipeline_cmd =
  let run spec capacity span pdef strategy cluster jobs stats trace_out =
    let g = or_fail (load_graph spec) in
    let strategy = strategy_of strategy in
    with_obs stats trace_out @@ fun () ->
    let options =
      {
        C.Pipeline.default_options with
        C.Pipeline.capacity;
        span_limit = span_of span;
        pdef;
        cluster;
        strategy;
      }
    in
    let t =
      with_session jobs (fun sess -> fst (Session.pipeline sess g ~options))
    in
    (match t.C.Pipeline.auto with
    | Some o ->
        Printf.printf "auto: dispatched %s  (rule %d: %s)\n" o.C.Auto.backend
          o.C.Auto.rule_index o.C.Auto.rule.C.Auto.provenance
    | None -> ());
    Format.printf "%a@." C.Pipeline.pp_summary t;
    Format.printf "%a@." (C.Schedule.pp t.C.Pipeline.graph) t.C.Pipeline.schedule
  in
  let cluster =
    Arg.(value & flag & info [ "cluster" ] ~doc:"Fuse multiply-accumulate pairs first.")
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Full flow: select, schedule, configuration report")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg
      $ strategy_arg $ cluster $ jobs_arg $ stats_arg
      $ trace_out_arg)

(* --- portfolio --- *)

let portfolio_cmd =
  let run spec capacity span pdef jobs stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    with_session jobs (fun sess ->
        let entry, _ = Session.intern sess g in
        let options =
          {
            C.Pipeline.default_options with
            C.Pipeline.capacity;
            span_limit = span_of span;
            pdef;
            enumeration_budget = None;
          }
        in
        let o, _ = Session.portfolio sess entry ~options in
        let t = C.Ascii_table.create ~header:[ "strategy"; "patterns"; "cycles" ] () in
        List.iter
          (fun e ->
            C.Ascii_table.add_row t
              [
                e.C.Portfolio.strategy;
                String.concat " " (List.map C.Pattern.to_string e.C.Portfolio.patterns);
                (if e.C.Portfolio.cycles = max_int then "unschedulable"
                 else string_of_int e.C.Portfolio.cycles);
              ])
          o.C.Portfolio.all;
        C.Ascii_table.print t;
        Printf.printf "winner: %s (%d cycles)\n" o.C.Portfolio.best.C.Portfolio.strategy
          o.C.Portfolio.best.C.Portfolio.cycles)
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Try every selection strategy and keep the winner (parallel with --jobs)")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg $ jobs_arg
      $ stats_arg $ trace_out_arg)

(* --- optimal --- *)

let optimal_cmd =
  let run spec capacity patterns max_states stats trace_out =
    let g = or_fail (load_graph spec) in
    if patterns = [] then or_fail (Error "need at least one -p PATTERN");
    let pats = parse_patterns ~capacity patterns in
    with_obs stats trace_out @@ fun () ->
    match C.Optimal.schedule ~max_states ~patterns:pats g with
    | exception C.Multi_pattern.Unschedulable colors ->
        or_fail
          (Error
             (Printf.sprintf "patterns cannot cover colors: %s"
                (String.concat ", " (List.map C.Color.to_string colors))))
    | o ->
        Format.printf "%a@." (C.Schedule.pp g) o.C.Optimal.schedule;
        Printf.printf "%d cycles (%s, %d states explored); list heuristic: %d\n"
          o.C.Optimal.cycles
          (if o.C.Optimal.proven_optimal then "proven optimal" else "state cap hit")
          o.C.Optimal.explored_states
          (C.Multi_pattern.cycles ~patterns:pats g)
  in
  let patterns =
    Arg.(
      value & opt_all string []
      & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc:"Allowed pattern (repeatable).")
  in
  let max_states =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-states" ] ~docv:"N" ~doc:"Branch-and-bound state cap.")
  in
  Cmd.v
    (Cmd.info "optimal" ~doc:"Exact minimum-cycle schedule by branch and bound")
    Term.(
      const run $ graph_arg $ capacity_arg $ patterns $ max_states $ stats_arg
      $ trace_out_arg)

(* --- anneal --- *)

let anneal_cmd =
  let run spec capacity span pdef iterations seed stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    let cls =
      C.Classify.compute ?span_limit:(span_of span) ~capacity (C.Enumerate.make_ctx g)
    in
    let rng = C.Rng.create ~seed in
    let o = C.Annealing.search ~iterations rng ~pdef cls in
    Printf.printf "patterns: %s\n"
      (String.concat " " (List.map C.Pattern.to_string o.C.Annealing.patterns));
    Printf.printf "%d cycles after %d schedule evaluations (%s the heuristic)\n"
      o.C.Annealing.cycles o.C.Annealing.evaluations
      (if o.C.Annealing.improved then "improved on" else "matched")
  in
  let iterations =
    Arg.(value & opt int 2000 & info [ "i"; "iterations" ] ~docv:"N" ~doc:"Annealing steps.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "anneal" ~doc:"Simulated-annealing pattern-set search")
    Term.(
      const run $ graph_arg $ capacity_arg $ span_arg $ pdef_arg $ iterations
      $ seed $ stats_arg $ trace_out_arg)

(* --- analyze --- *)

let analyze_cmd =
  let run spec capacity =
    let g = or_fail (load_graph spec) in
    let lv = C.Levels.compute g in
    let p = C.Posets.analyze g in
    Printf.printf "%d nodes, %d edges, colors: %s\n" (C.Dfg.node_count g)
      (C.Dfg.edge_count g)
      (String.concat " "
         (List.map
            (fun (c, k) -> Printf.sprintf "%s=%d" (C.Color.to_string c) k)
            (C.Dfg.color_counts g)));
    Printf.printf "critical path: %d cycles\n" (C.Levels.lower_bound_cycles lv);
    Format.printf "%a@." (C.Posets.pp g) p;
    Printf.printf "capacity-%d lower bound: %d cycles\n" capacity
      (C.Posets.lower_bound_cycles p ~capacity);
    if C.Posets.width p <= capacity then
      Printf.printf
        "width <= %d: the ALU count never binds; only the color mix matters\n"
        capacity
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Structural analysis: width (Dilworth), covers (Mirsky), bounds")
    Term.(const run $ graph_arg $ capacity_arg)

(* --- stream --- *)

let stream_cmd =
  let run spec patterns pdef span capacity stats trace_out =
    let g = or_fail (load_graph spec) in
    with_obs stats trace_out @@ fun () ->
    let patterns =
      if patterns <> [] then parse_patterns ~capacity patterns
      else begin
        let cls =
          C.Classify.compute ?span_limit:(span_of span) ~capacity
            (C.Enumerate.make_ctx g)
        in
        C.Select.select ~pdef cls
      end
    in
    let loop = C.Loop_graph.make g [] in
    Printf.printf "patterns: %s\n"
      (String.concat " " (List.map C.Pattern.to_string patterns));
    Printf.printf "single-shot: %d cycles; MII: %d\n"
      (C.Multi_pattern.cycles ~patterns g)
      (C.Loop_graph.mii loop ~patterns);
    match C.Modulo.schedule ~patterns loop with
    | m ->
        Printf.printf "pipelined: II = %d (one result every %d cycles), latency %d\n"
          m.C.Modulo.ii m.C.Modulo.ii m.C.Modulo.makespan;
        Array.iteri
          (fun s p -> Printf.printf "  slot %d: %s\n" s (C.Pattern.to_string p))
          m.C.Modulo.slot_patterns
    | exception C.Modulo.No_schedule { tried_up_to } ->
        or_fail (Error (Printf.sprintf "no modulo schedule up to II=%d" tried_up_to))
  in
  let patterns =
    Arg.(
      value & opt_all string []
      & info [ "p"; "pattern" ] ~docv:"PATTERN"
          ~doc:"Allowed pattern (repeatable); defaults to running selection.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Software-pipeline the graph as a streaming loop (modulo scheduling)")
    Term.(
      const run $ graph_arg $ patterns $ pdef_arg $ span_arg $ capacity_arg
      $ stats_arg $ trace_out_arg)

(* --- codegen --- *)

let builtin_programs =
  [
    ("w3dft", fun () -> C.Dft.winograd3 ());
    ("w5dft", fun () -> C.Dft.winograd5 ());
    ("fft8", fun () -> C.Dft.radix2_fft ~n:8);
    ("dct8", fun () -> C.Kernels.dct8 ());
    ("ofdm4", fun () -> C.Ofdm.receiver ~n:4);
    ("bitonic8", fun () -> C.Sorting.bitonic ~n:8);
  ]

let load_program spec =
  match List.assoc_opt spec builtin_programs with
  | Some f -> Ok (f ())
  | None -> (
      match C.Program_text.load spec with
      | p -> Ok p
      | exception Sys_error m -> Error m
      | exception C.Program_text.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" spec line message))

let codegen_cmd =
  let run name pdef out stats trace_out =
    match load_program name with
    | Error m ->
        or_fail
          (Error
             (Printf.sprintf
                "%s (PROGRAM is a .prog file or one of: %s)"
                m
                (String.concat ", " (List.map fst builtin_programs))))
    | Ok _ as loaded -> (
        let f () = Result.get_ok loaded in
        let prog = f () in
        with_obs stats trace_out @@ fun () ->
        let options = { C.Pipeline.default_options with C.Pipeline.pdef } in
        match C.Pipeline.map_program ~options prog with
        | Error m -> or_fail (Error m)
        | Ok mapped -> (
            match
              C.Obs.span "codegen" (fun () ->
                  C.Codegen.generate prog
                    mapped.C.Pipeline.pipeline.C.Pipeline.schedule
                    mapped.C.Pipeline.allocation)
            with
            | Error m -> or_fail (Error m)
            | Ok listing -> (
                match out with
                | None -> print_string listing
                | Some path ->
                    C.Dot.write_file ~path listing;
                    Printf.printf "wrote %s\n" path)))
  in
  let prog_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc:"A .prog file or built-in program.")
  in
  let out =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the Montium configuration listing for a mapped program")
    Term.(const run $ prog_arg $ pdef_arg $ out $ stats_arg $ trace_out_arg)

(* --- program dump --- *)

let program_cmd =
  let run name =
    match load_program name with
    | Ok p -> print_string (C.Program_text.to_string p)
    | Error m -> or_fail (Error m)
  in
  let prog_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc:"A .prog file or built-in program.")
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Dump a program in the textual .prog format")
    Term.(const run $ prog_arg)

(* --- dot --- *)

let dot_cmd =
  let run spec out =
    let g = or_fail (load_graph spec) in
    let dot = C.Dot.to_dot ~levels:(C.Levels.compute g) g in
    match out with
    | None -> print_string dot
    | Some path ->
        C.Dot.write_file ~path dot;
        Printf.printf "wrote %s\n" path
  in
  let out =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Graphviz export (Figures 2 and 4)") Term.(const run $ graph_arg $ out)

(* --- tracecheck --- *)

let tracecheck_cmd =
  let run path =
    let text =
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | t -> t
      | exception Sys_error m -> or_fail (Error m)
    in
    match C.Obs.validate_chrome_trace text with
    | Ok n -> Printf.printf "%s: ok, %d trace events\n" path n
    | Error m -> or_fail (Error (Printf.sprintf "%s: %s" path m))
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A JSON file written by --trace.")
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:"Validate a Chrome trace-event JSON file written by --trace")
    Term.(const run $ path_arg)

(* --- serve --- *)

let serve_cmd =
  let print_session_stats sess =
    let hits, misses = Session.session_cache_stats sess in
    Printf.eprintf
      "serve: %d requests over %d graphs, eval cache %d hits / %d misses\n"
      (Session.request_count sess)
      (Session.graph_count sess)
      hits misses
  in
  let run use_stdin listen connect jobs stats trace_out =
    match (use_stdin, listen, connect) with
    | _, _, Some path ->
        (* Client mode: forward stdin's request lines to a listening
           server and print its response lines — the socket counterpart
           of piping into --stdin. *)
        let conn =
          match Server.connect_unix ~path with
          | conn -> conn
          | exception Unix.Unix_error (e, _, _) ->
              or_fail
                (Error
                   (Printf.sprintf "serve --connect %s: %s" path
                      (Unix.error_message e)))
        in
        (match Server.forward conn ~requests:stdin ~responses:stdout with
        | Ok () -> ()
        | Error m -> or_fail (Error ("serve --connect: " ^ m)))
    | _, Some path, None ->
        (* Socket transport: one warm session shared by every connection,
           served one connection at a time (the session is single-writer
           state).  Runs until killed; the socket file is unlinked on
           bind, not on exit. *)
        with_obs stats trace_out @@ fun () ->
        with_session jobs @@ fun sess ->
        let fd =
          match Server.listen_unix ~path with
          | fd -> fd
          | exception Unix.Unix_error (e, _, _) ->
              or_fail
                (Error
                   (Printf.sprintf "serve --listen %s: %s" path
                      (Unix.error_message e)))
        in
        let rec accept_loop () =
          Server.serve_connection sess fd;
          if stats then print_session_stats sess;
          accept_loop ()
        in
        accept_loop ()
    | true, None, None ->
        with_obs stats trace_out @@ fun () ->
        with_session jobs @@ fun sess ->
        Server.run sess stdin stdout;
        if stats then print_session_stats sess
    | false, None, None ->
        or_fail (Error "serve: pass --stdin, --listen PATH or --connect PATH")
  in
  let use_stdin =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Serve line-delimited JSON requests from standard input, one \
             response line per request on standard output.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"PATH"
          ~doc:
            "Serve the same protocol on a Unix-domain socket at $(docv): \
             one warm session shared by every connection, connections \
             served in arrival order until the process is killed.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Client mode: forward request lines from standard input to the \
             server listening at $(docv) and print its responses.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent scheduling service: line-delimited JSON requests on \
          stdin (--stdin) or a Unix-domain socket (--listen), warm \
          classification/eval/ban caches across requests, byte-identical \
          responses for every --jobs value")
    Term.(
      const run $ use_stdin $ listen $ connect $ jobs_arg $ stats_arg
      $ trace_out_arg)

(* --- workload --- *)

let workload_cmd =
  let run name =
    match List.assoc_opt name builtin_graphs with
    | Some f -> print_string (C.Dfg_parse.to_string (f ()))
    | None ->
        or_fail
          (Error
             (Printf.sprintf "unknown workload %s (have: %s)" name
                (String.concat ", " (List.map fst builtin_graphs))))
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Built-in workload.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Dump a built-in workload in the DFG text format")
    Term.(const run $ name_arg)

let () =
  let info =
    Cmd.info "mpsched" ~version:"1.0.0"
      ~doc:"Multi-pattern scheduling and pattern selection for the Montium (IPDPS 2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            levels_cmd; antichains_cmd; patterns_cmd; select_cmd; exact_cmd;
            schedule_cmd;
            optimal_cmd; anneal_cmd; codegen_cmd; stream_cmd; analyze_cmd;
            pipeline_cmd; portfolio_cmd; serve_cmd; dot_cmd; workload_cmd;
            program_cmd; tracecheck_cmd;
          ]))
