module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Rng = Mps_util.Rng
module Obs = Mps_obs.Obs

type outcome = {
  patterns : Pattern.t list;
  cycles : int;
  evaluations : int;
  improved : bool;
}

let covers u all_colors ids =
  let covered =
    List.fold_left
      (fun acc id -> Color.Set.union acc (Universe.color_set u id))
      Color.Set.empty ids
  in
  Color.Set.subset all_colors covered

let search ?(iterations = 2000) ?(initial_temperature = 2.0) ?(cooling = 0.995)
    rng ~pdef classify =
  if pdef < 1 then invalid_arg "Annealing.search: pdef < 1";
  if iterations < 0 then invalid_arg "Annealing.search: negative iterations";
  if cooling <= 0.0 || cooling > 1.0 then
    invalid_arg "Annealing.search: cooling outside (0,1]";
  if initial_temperature <= 0.0 then
    invalid_arg "Annealing.search: non-positive temperature";
  Obs.span "anneal" @@ fun () ->
  let g = Classify.graph classify in
  let u = Classify.universe classify in
  let all_colors = Color.Set.of_list (Dfg.colors g) in
  let pool = Array.of_list (Classify.ids classify) in
  let evaluations = ref 0 in
  (* One evaluation context for the whole search: graph analyses amortized,
     and the memo cache answers every revisited pattern set for free —
     annealing walks a small neighborhood, so revisits dominate quickly. *)
  let ectx = Eval.make ~universe:u g in
  let cost ids =
    incr evaluations;
    match Eval.cycles_ids ectx ids with
    | c -> c
    | exception Eval.Unschedulable _ -> max_int
  in
  (* Start from the paper's heuristic so the search can only improve it. *)
  let start = List.map (Universe.intern u) (Select.select ~pdef classify) in
  let start_cost = cost start in
  let current = ref (Array.of_list start) in
  let current_cost = ref start_cost in
  let best = ref (Array.copy !current) in
  let best_cost = ref start_cost in
  let temperature = ref initial_temperature in
  if Array.length pool > 0 && Array.length !current > 0 then
    for _ = 1 to iterations do
      let candidate = Array.copy !current in
      let slot = Rng.int rng (Array.length candidate) in
      let replacement = Rng.choice rng pool in
      (* A move that re-draws the displaced id proposes the current state
         verbatim: delta would be 0 and it would be accepted back into
         itself.  Don't burn an evaluation or a temperature step on it. *)
      if not (Pattern.Id.equal replacement candidate.(slot)) then begin
        candidate.(slot) <- replacement;
        let cand_list = Array.to_list candidate in
        if covers u all_colors cand_list then begin
          (* Cost exactly the list that is adopted on acceptance: list
             order decides score ties in the scheduler, so [slot] matters
             even when the displaced pattern occurs twice. *)
          let c = cost cand_list in
          let delta = float_of_int (c - !current_cost) in
          let accept =
            c < max_int
            && (delta <= 0.0 || Rng.float rng 1.0 < exp (-.delta /. !temperature))
          in
          if accept then begin
            current := candidate;
            current_cost := c;
            if c < !best_cost then begin
              best := Array.copy candidate;
              best_cost := c
            end
          end
        end;
        temperature := !temperature *. cooling
      end
    done;
  Obs.count "anneal.evaluations" !evaluations;
  {
    patterns = List.map (Universe.pattern u) (Array.to_list !best);
    cycles = !best_cost;
    evaluations = !evaluations;
    improved = !best_cost < start_cost;
  }
