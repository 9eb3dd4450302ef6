module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Id = Mps_pattern.Pattern.Id
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Obs = Mps_obs.Obs

type outcome = {
  patterns : Pattern.t list;
  cycles : int;
  evaluated_sets : int;
}

(* One partial selection: chosen pattern ids (reversed), accumulated
   per-node coverage, covered colors, surviving pool, and the heuristic
   score that ranks beams (sum of the Eq. 8 priorities of its picks). *)
type state = {
  chosen : Id.t list;
  cover : int array;
  covered : Color.Set.t;
  pool : (Id.t * int array) list;
  heuristic : float;
}

let search ?(width = 4) ?(params = Select.default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Beam.search: pdef must be >= 1";
  if width < 1 then invalid_arg "Beam.search: width must be >= 1";
  Obs.span "beam" @@ fun () ->
  let g = Classify.graph classify in
  let capacity = Classify.capacity classify in
  let u = Classify.universe classify in
  let colors = Color.Set.of_list (Dfg.colors g) in
  let initial =
    {
      chosen = [];
      cover = Array.make (Dfg.node_count g) 0;
      covered = Color.Set.empty;
      pool =
        Classify.fold_ids (fun id ~count:_ ~freq acc -> (id, freq) :: acc) classify []
        |> List.rev;
      heuristic = 0.0;
    }
  in
  (* One Fig. 7 step from [state], branching on the [width] best Eq. 8
     scores among the candidates Eq. 9 admits instead of the single best. *)
  let extend step state =
    let apply pid freq score =
      let cover = Array.copy state.cover in
      Select.add_cover cover freq;
      {
        chosen = pid :: state.chosen;
        cover;
        covered = Color.Set.union state.covered (Universe.color_set u pid);
        pool = Select.delete_subpatterns u ~of_:pid state.pool;
        heuristic = state.heuristic +. score;
      }
    in
    let admits =
      Select.color_condition u ~capacity ~colors ~covered:state.covered
        ~remaining_picks:(pdef - step - 1)
    in
    let scored =
      List.filter_map
        (fun (id, freq) ->
          if admits id then
            let s =
              Select.priority ~params ~cover:state.cover ~freq ~size:(Universe.size u id)
            in
            Some (s, id, freq)
          else None)
        state.pool
    in
    match scored with
    | [] -> (
        match Select.fallback u ~capacity ~colors ~covered:state.covered with
        | None -> [ state ]
        | Some pid -> [ apply pid [||] 0.0 ] (* no antichains, no coverage *))
    | _ ->
        List.sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1) scored
        |> List.filteri (fun i _ -> i < width)
        |> List.map (fun (s, id, freq) -> apply id freq s)
  in
  let rec steps i beam =
    if i = pdef then beam
    else begin
      let expanded = List.concat_map (extend i) beam in
      Obs.count "beam.expansions" (List.length expanded);
      (* Keep the [width] most promising partial selections; dedupe on the
         chosen multiset so permutations don't crowd the beam.  The key
         stays the sorted pattern list (not ids): the dedupe order seeds
         the stable heuristic sort's tie-breaks, and ids are allocated in
         visit order, not pattern order. *)
      let key st = List.sort Pattern.compare (List.map (Universe.pattern u) st.chosen) in
      let deduped =
        List.sort_uniq (fun a b -> compare (key a) (key b)) expanded
      in
      let ranked =
        List.sort (fun a b -> compare b.heuristic a.heuristic) deduped
      in
      steps (i + 1) (List.filteri (fun k _ -> k < width) ranked)
    end
  in
  let finalists = steps 0 [ initial ] in
  (* Finalists are scored on one shared evaluation context: the graph
     analyses run once, and the memo cache absorbs any multiset the beam
     reaches twice.  Delta recording is on because consecutive finalists
     usually differ in a single pick. *)
  let ectx = Eval.make ~universe:u ~delta:true g in
  let evaluated = ref 0 in
  (* Multiset difference of two id lists as (only-in-prev, only-in-next),
     each ascending — the shape decides whether a finalist is one swap or
     one extension away from the previously costed one. *)
  let multiset_diff prev next =
    let s l = List.sort (fun a b -> compare (Id.to_int a) (Id.to_int b)) l in
    let rec walk rem add p n =
      match (p, n) with
      | [], [] -> (List.rev rem, List.rev add)
      | x :: p', [] -> walk (x :: rem) add p' []
      | [], y :: n' -> walk rem (y :: add) [] n'
      | x :: p', y :: n' ->
          let c = compare (Id.to_int x) (Id.to_int y) in
          if c = 0 then walk rem add p' n'
          else if c < 0 then walk (x :: rem) add p' n
          else walk rem (y :: add) p n'
    in
    walk [] [] (s prev) (s next)
  in
  let prev_ids = ref [] in
  (* Cost a finalist through the delta path when it is one move away from
     the previous finalist (single swap or single pool extension); wider
     diffs take the plain path.  Results and counters are identical either
     way — the delta path only changes how much of the run is re-stepped. *)
  let cost ids =
    let eval () =
      match (!prev_ids, multiset_diff !prev_ids ids) with
      | [], _ | _, ([], []) -> Eval.cycles_ids ectx ids
      | prev, ([ r ], [ a ]) ->
          Eval.cycles_delta_ids ectx ~removed:r ~prev ~added:a
      | prev, ([], [ a ]) -> Eval.cycles_delta_ids ectx ~prev ~added:a
      | _ -> Eval.cycles_ids ectx ids
    in
    match eval () with
    | c ->
        prev_ids := ids;
        c
    | exception e ->
        prev_ids := ids;
        raise e
  in
  let best =
    List.fold_left
      (fun acc state ->
        let ids = List.rev state.chosen in
        let patterns = List.map (Universe.pattern u) ids in
        if patterns = [] then acc
        else begin
          match cost ids with
          | exception Eval.Unschedulable _ -> acc
          | c -> (
              incr evaluated;
              match acc with
              | Some (_, bc) when bc <= c -> acc
              | _ -> Some (patterns, c))
        end)
      None finalists
  in
  match best with
  | Some (patterns, cycles) ->
      Obs.count "beam.evaluated" !evaluated;
      { patterns; cycles; evaluated_sets = !evaluated }
  | None ->
      (* Every finalist was empty or unschedulable.  Fall back to the
         paper's heuristic; Eq. 9 cannot guarantee coverage when C·Pdef is
         below the color count, so its set costs max_int when it cannot
         schedule either, as every other backend's does. *)
      let patterns = Select.select ~params ~pdef classify in
      let cycles =
        match Eval.cycles ectx patterns with
        | c -> c
        | exception Eval.Unschedulable _ -> max_int
      in
      Obs.count "beam.evaluated" (!evaluated + 1);
      { patterns; cycles; evaluated_sets = !evaluated + 1 }
