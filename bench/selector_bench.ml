(* Selector fit: the one gate on the per-graph strategy auto-selection.

     dune exec bench/main.exe -- --fit-selector

   Over the full corpus plus the huge tier, each workload is classified
   once; the full portfolio runs on that classification (the oracle: every
   backend's cycles) and so does auto with the compiled-in table.  The
   portfolio costs are the examples [Auto.fit] refits the rule table from;
   the table is printed with per-rule provenance, thresholds at the 12
   significant digits the fit rounds to, so it can be pasted into
   lib/select/auto.ml as is.  Hard gates (exit 1):

     - the refit equals the compiled-in Auto.builtin_rules (refit and
       paste when the corpus, the features or the backends change);
     - on every workload auto's answer is some portfolio backend's exact
       pattern set and cycle count (never a novel schedule);
     - median regret over the corpus is <= 5% (regret: auto cycles vs
       the portfolio's best, in percent).

   Writes no file. *)

module Enumerate = Core.Enumerate
module Classify = Core.Classify
module Portfolio = Core.Portfolio
module Features = Core.Features
module Auto = Core.Auto
module Suite = Core.Suite
module Pattern = Core.Pattern

let capacity = Core.Paper_graphs.montium_capacity
let pdef = 4

let classify g =
  Classify.compute ~span_limit:1 ~budget:5_000_000 ~capacity
    (Enumerate.make_ctx g)

let print_rule i (r : Auto.rule) =
  let conds =
    match r.Auto.conds with
    | [] -> "otherwise"
    | conds ->
        String.concat " && "
          (List.map
             (fun (c : Auto.cond) ->
               Printf.sprintf "%s %s %.12g" c.Auto.feature
                 (match c.Auto.op with Auto.Le -> "<=" | Auto.Gt -> ">")
                 c.Auto.threshold)
             conds)
  in
  Printf.printf "  %d. %-40s -> %-16s (%s)\n" i conds r.Auto.backend
    r.Auto.provenance

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let fit () =
  Printf.printf "\n=== Selector fit (full corpus + huge tier) ===\n%!";
  let failed = ref false in
  Printf.printf "  %-12s %-16s %4s %5s %5s %7s\n" "graph" "backend" "rule"
    "auto" "best" "regret%";
  let runs =
    List.map
      (fun (e : Suite.entry) ->
        let name = e.Suite.name in
        let g = e.Suite.build () in
        let cls = classify g in
        let outcome = Portfolio.run ~pdef cls in
        let auto = Auto.select ~pdef cls in
        (match
           List.find_opt
             (fun (en : Portfolio.entry) ->
               en.Portfolio.strategy = auto.Auto.backend)
             outcome.Portfolio.all
         with
        | None ->
            Printf.printf "MISMATCH: %s auto picked %S, not a portfolio backend\n"
              name auto.Auto.backend;
            failed := true
        | Some en ->
            if
              (not (List.equal Pattern.equal en.Portfolio.patterns auto.Auto.patterns))
              || en.Portfolio.cycles <> auto.Auto.cycles
            then begin
              Printf.printf
                "MISMATCH: %s auto's %s result diverges from the portfolio's \
                 (%d vs %d cycles)\n"
                name auto.Auto.backend auto.Auto.cycles en.Portfolio.cycles;
              failed := true
            end);
        let best = outcome.Portfolio.best.Portfolio.cycles in
        let regret =
          if best = 0 || best = max_int then 0.
          else
            float_of_int (auto.Auto.cycles - best) /. float_of_int best *. 100.
        in
        Printf.printf "  %-12s %-16s %4d %5d %5d %7.1f\n%!" name
          auto.Auto.backend auto.Auto.rule_index auto.Auto.cycles best regret;
        let example =
          {
            Auto.name;
            example_features = Features.extract g;
            costs =
              List.map
                (fun (en : Portfolio.entry) ->
                  (en.Portfolio.strategy, en.Portfolio.cycles))
                outcome.Portfolio.all;
          }
        in
        (example, regret))
      (Suite.corpus ~full:true ~huge:true ())
  in
  let rules = Auto.fit (List.map fst runs) in
  Printf.printf "  refit rule table:\n";
  List.iteri print_rule rules;
  if rules <> Auto.builtin_rules then begin
    Printf.printf
      "REGRESSION: the refit differs from the compiled-in Auto.builtin_rules \
       (paste the table above into lib/select/auto.ml)\n";
    failed := true
  end;
  let med = median (List.map snd runs) in
  Printf.printf "  median regret %.1f%%\n" med;
  if med > 5.0 then begin
    Printf.printf "REGRESSION: median regret %.1f%% over the 5%% gate\n" med;
    failed := true
  end;
  if !failed then exit 1
