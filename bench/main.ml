(* Paper-reproduction harness.

     dune exec bench/main.exe              -- --all: tables, ablations, selector fit
     dune exec bench/main.exe -- --tables  -- just the paper's tables/figures
     dune exec bench/main.exe -- --ablation
     dune exec bench/main.exe -- --csv     -- export the sweeps to results/*.csv
     dune exec bench/main.exe -- --fit-selector

   Every table and figure of the paper is regenerated by the --tables pass,
   printed next to the published numbers; EXPERIMENTS.md records the
   comparison.  Performance is measured by perfbench (BENCHMARK.json). *)

let usage () =
  print_endline
    "usage: main.exe [--tables] [--ablation] [--csv] [--fit-selector] [--all]\n\
     default (no flags) = --all (csv only when asked)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags = [ "--tables"; "--ablation"; "--csv"; "--fit-selector"; "--all" ] in
  if List.exists (fun a -> not (List.mem a flags)) args then begin
    usage ();
    exit 2
  end;
  let all = args = [] || List.mem "--all" args in
  if all || List.mem "--tables" args then Tables.run_all ();
  if all || List.mem "--ablation" args then Ablation.run_all ();
  if all || List.mem "--fit-selector" args then Selector_bench.fit ();
  if List.mem "--csv" args then Csv_out.run_all ()
