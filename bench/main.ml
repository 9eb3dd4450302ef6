(* Benchmark and reproduction harness.

     dune exec bench/main.exe              -- tables + ablations + quick perf
     dune exec bench/main.exe -- --tables  -- just the paper's tables/figures
     dune exec bench/main.exe -- --ablation
     dune exec bench/main.exe -- --perf    -- bechamel micro-benchmarks
     dune exec bench/main.exe -- --scaling [--smoke] [--jobs N]
                                           -- sequential vs parallel wall time,
                                              determinism-checked (exits 1 on
                                              any seq/par divergence)

   Every table and figure of the paper is regenerated by the --tables pass,
   printed next to the published numbers; EXPERIMENTS.md records the
   comparison. *)

let usage () =
  print_endline
    "usage: main.exe [--tables] [--ablation] [--perf] [--pattern-ops]\n\
    \       [--eval-ops] [--exact] [--serve] [--selector] [--fit-selector]\n\
    \       [--scaling] [--smoke] [--jobs N] [--csv] [--all]\n\
     default (no flags) = --all (csv only when asked)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref 4 in
  let rec parse seen = function
    | [] -> List.rev seen
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse seen rest
        | _ ->
            usage ();
            exit 2)
    | a :: rest -> parse (a :: seen) rest
  in
  let args = parse [] args in
  let tables = List.mem "--tables" args in
  let ablation = List.mem "--ablation" args in
  let perf = List.mem "--perf" args in
  let pattern_ops = List.mem "--pattern-ops" args in
  let eval_ops = List.mem "--eval-ops" args in
  let exact = List.mem "--exact" args in
  let serve = List.mem "--serve" args in
  let selector = List.mem "--selector" args in
  let fit_selector = List.mem "--fit-selector" args in
  let scaling = List.mem "--scaling" args in
  let smoke = List.mem "--smoke" args in
  let csv = List.mem "--csv" args in
  let unknown =
    List.filter
      (fun a ->
        not
          (List.mem a
             [
               "--tables"; "--ablation"; "--perf"; "--pattern-ops"; "--eval-ops";
               "--exact"; "--serve"; "--selector"; "--fit-selector"; "--scaling";
               "--smoke"; "--csv"; "--all";
             ]))
      args
  in
  if unknown <> [] then begin
    usage ();
    exit 2
  end;
  let all =
    List.mem "--all" args
    || (not tables && not ablation && not perf && not pattern_ops
      && not eval_ops && not exact && not serve && not selector
      && not fit_selector && not scaling && not csv)
  in
  if all || tables then Tables.run_all ();
  if all || ablation then Ablation.run_all ();
  if all || perf then Perf.run_all ();
  if all || pattern_ops then Perf.run_pattern_ops ~smoke ();
  if all || eval_ops then Perf.run_eval_ops ~smoke ();
  if all || exact then Exact_bench.run ~smoke ();
  if all || serve then Serve_bench.run ~smoke ();
  if fit_selector then Selector_bench.fit ();
  if all || selector then Selector_bench.run ~smoke ();
  if scaling then Perf.run_scaling ~smoke ~jobs:!jobs ()
  else if all then Perf.run_scaling ~smoke:true ~jobs:!jobs ();
  if csv then Csv_out.run_all ()
