module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Exact = Mps_select.Exact

type outcome = {
  best : Pattern.t list;
  best_cycles : int;
  evaluated : int;
  truncated : bool;
}

let search ?priority ?(max_sets = 200_000) ~pdef classify =
  if pdef < 1 then invalid_arg "Exhaustive.search: pdef must be >= 1";
  let g = Classify.graph classify in
  let capacity = Classify.capacity classify in
  let all_colors = Color.Set.of_list (Dfg.colors g) in
  (* Enumerate in the shared canonical pool order so every set is costed in
     exactly the order the exact backend costs it — the two searches then
     agree set-for-set, not just cycles-for-cycles. *)
  let pool = Array.of_list (Classify.patterns classify) in
  Array.sort Exact.pool_order pool;
  let pool_set =
    Array.fold_left (fun acc p -> Pattern.Set.add p acc) Pattern.Set.empty pool
  in
  let best = ref [] and best_cycles = ref max_int in
  let evaluated = ref 0 and truncated = ref false in
  (* One evaluation context across the whole enumeration; combinations that
     complete to the same coverage set collapse into one cached schedule. *)
  let ectx = Eval.make g in
  let consider patterns =
    if !evaluated >= max_sets then truncated := true
    else begin
      incr evaluated;
      match Eval.cycles ?priority ectx patterns with
      | c ->
          if c < !best_cycles then begin
            best_cycles := c;
            best := patterns
          end
      | exception Eval.Unschedulable _ -> ()
    end
  in
  let complete chosen =
    (* Fill missing colors with one fabricated pattern when possible. *)
    let covered =
      List.fold_left
        (fun acc p -> Color.Set.union acc (Pattern.color_set p))
        Color.Set.empty chosen
    in
    let uncovered = Color.Set.elements (Color.Set.diff all_colors covered) in
    if uncovered = [] then Some chosen
    else if List.length chosen < pdef && List.length uncovered <= capacity then begin
      (* A fabrication that coincides with a pool pattern is a
         non-canonical duplicate of a pool-only combination enumerated
         elsewhere: skip it, so every set is costed in exactly one pattern
         order and the reported optimum is traversal-independent (the list
         scheduler breaks score ties by list position).  The exact backend
         applies the same rule, which is what makes the two searches agree
         set-for-set wherever both terminate. *)
      let fab = Pattern.of_colors uncovered in
      if Pattern.Set.mem fab pool_set then None else Some (chosen @ [ fab ])
    end
    else None
  in
  (* Choose up to pdef patterns from the pool, combinations without
     repetition, in index order. *)
  let rec choose start chosen slots =
    if !truncated then ()
    else if slots = 0 then Option.iter consider (complete (List.rev chosen))
    else begin
      (* Also allow stopping early with fewer than pdef picks. *)
      Option.iter consider (complete (List.rev chosen));
      for i = start to Array.length pool - 1 do
        choose (i + 1) (pool.(i) :: chosen) (slots - 1)
      done
    end
  in
  choose 0 [] pdef;
  { best = !best; best_cycles = !best_cycles; evaluated = !evaluated; truncated = !truncated }
