(* Benchmark and reproduction harness.

     dune exec bench/main.exe              -- all modes but --fit-selector, --csv
     dune exec bench/main.exe -- --tables  -- just the paper's tables/figures
     dune exec bench/main.exe -- --ablation

   Every table and figure of the paper is regenerated by the --tables pass,
   printed next to the published numbers; EXPERIMENTS.md records the
   comparison. *)

let usage () =
  print_endline
    "usage: main.exe [--tables] [--ablation] [--pattern-ops] [--eval-ops]\n\
    \       [--exact] [--serve] [--selector] [--fit-selector] [--smoke]\n\
    \       [--csv] [--all]\n\
     default (no flags) = --all (csv only when asked)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tables = List.mem "--tables" args in
  let ablation = List.mem "--ablation" args in
  let pattern_ops = List.mem "--pattern-ops" args in
  let eval_ops = List.mem "--eval-ops" args in
  let exact = List.mem "--exact" args in
  let serve = List.mem "--serve" args in
  let selector = List.mem "--selector" args in
  let fit_selector = List.mem "--fit-selector" args in
  let smoke = List.mem "--smoke" args in
  let csv = List.mem "--csv" args in
  let unknown =
    List.filter
      (fun a ->
        not
          (List.mem a
             [
               "--tables"; "--ablation"; "--pattern-ops"; "--eval-ops"; "--exact";
               "--serve"; "--selector"; "--fit-selector"; "--smoke"; "--csv";
               "--all";
             ]))
      args
  in
  if unknown <> [] then begin
    usage ();
    exit 2
  end;
  let all =
    List.mem "--all" args
    || (not tables && not ablation && not pattern_ops && not eval_ops
      && not exact && not serve && not selector && not fit_selector
      && not csv)
  in
  if all || tables then Tables.run_all ();
  if all || ablation then Ablation.run_all ();
  if all || pattern_ops then Perf.run_pattern_ops ~smoke ();
  if all || eval_ops then Perf.run_eval_ops ~smoke ();
  if all || exact then Exact_bench.run ~smoke ();
  if all || serve then Serve_bench.run ~smoke ();
  if fit_selector then Selector_bench.fit ();
  if all || selector then Selector_bench.run ~smoke ();
  if csv then Csv_out.run_all ()
