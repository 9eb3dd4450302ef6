module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern

(* The implementation lives in {!Eval}: one per-graph context carries the
   graph analyses and both the full-fidelity scheduler (this module) and
   the fast memoized cycle counter (the search strategies).  Re-exported
   aliases keep this interface — the paper-facing one — unchanged. *)

exception Unschedulable = Eval.Unschedulable

type pattern_priority = Eval.pattern_priority = F1 | F2

type trace_row = Eval.trace_row = {
  row_cycle : int;
  row_candidates : int list;
  row_selected : (Pattern.t * int list) list;
  row_chosen : int;
}

type result = Eval.result = { schedule : Schedule.t; trace : trace_row list }

let schedule ?priority ?trace ?universe ~patterns g =
  Eval.schedule ?priority ?trace (Eval.make ?universe g) ~patterns

let cycles ?priority ~patterns g =
  if patterns = [] then invalid_arg "Multi_pattern.schedule: no patterns";
  Eval.cycles ?priority (Eval.make g) patterns

let pp_names g ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
    (fun ppf i -> Format.pp_print_string ppf (Dfg.name g i))
    ppf l

let pp_trace g ppf rows =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "cycle %d@,  candidates: %a@," r.row_cycle (pp_names g)
        r.row_candidates;
      List.iteri
        (fun idx (p, sel) ->
          Format.fprintf ppf "  %s%a: %a@,"
            (if idx = r.row_chosen then "*" else " ")
            Pattern.pp p (pp_names g) sel)
        r.row_selected)
    rows;
  Format.fprintf ppf "@]"
