module Listx = Mps_util.Listx
module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Obs = Mps_obs.Obs

type params = { epsilon : float; alpha : float }

let default_params = { epsilon = 0.5; alpha = 20.0 }

type step = {
  chosen : Pattern.t;
  priority : float;
  fallback : bool;
  deleted : Pattern.t list;
  priorities : (Pattern.t * float) list;
}

type report = { patterns : Pattern.t list; steps : step list }

let covers_all_colors g patterns =
  let covered =
    List.fold_left
      (fun acc p -> Color.Set.union acc (Pattern.color_set p))
      Color.Set.empty patterns
  in
  List.for_all (fun c -> Color.Set.mem c covered) (Dfg.colors g)

let balance ~params ~cover ~freq =
  let acc = ref 0.0 in
  Array.iteri
    (fun n h ->
      if h > 0 then
        acc := !acc +. (float_of_int h /. (float_of_int cover.(n) +. params.epsilon)))
    freq;
  !acc

let priority ~params ~cover ~freq ~size =
  balance ~params ~cover ~freq +. (params.alpha *. float_of_int (size * size))

let add_cover cover freq = Array.iteri (fun n h -> cover.(n) <- cover.(n) + h) freq

let color_condition u ~capacity ~colors ~covered ~remaining_picks =
  let missing = Color.Set.cardinal (Color.Set.diff colors covered) in
  fun id ->
    Color.Set.cardinal (Color.Set.diff (Universe.color_set u id) covered)
    >= missing - (capacity * remaining_picks)

let fallback u ~capacity ~colors ~covered =
  match Color.Set.elements (Color.Set.diff colors covered) with
  | [] -> None
  | uncovered ->
      Some (Universe.intern u (Pattern.of_colors (Listx.take capacity uncovered)))

let delete_subpatterns u ~of_ pool =
  List.filter (fun (q, _) -> not (Universe.subpattern u q ~of_)) pool

let run u ~capacity ~colors ~pdef ~score ~commit pool =
  let rec go i pool covered steps =
    if i >= pdef then List.rev steps
    else begin
      let admits =
        color_condition u ~capacity ~colors ~covered ~remaining_picks:(pdef - i - 1)
      in
      let scored =
        List.map
          (fun (id, x) ->
            (id, x, if admits id then score ~size:(Universe.size u id) x else 0.0))
          pool
      in
      let best =
        List.fold_left
          (fun acc (id, x, f) ->
            match acc with
            | Some (_, _, bf) when bf >= f -> acc
            | _ when f > 0.0 -> Some (id, x, f)
            | _ -> acc)
          None scored
      in
      let pick =
        match best with
        | Some (id, x, f) ->
            commit x;
            Some (id, f, false)
        | None ->
            (* No candidate works: fabricate from uncovered colors (up to
               C).  With nothing uncovered and an empty viable pool, more
               patterns cannot help; stop early. *)
            Option.map (fun id -> (id, 0.0, true)) (fallback u ~capacity ~colors ~covered)
      in
      match pick with
      | None -> List.rev steps
      | Some (pid, priority, fallback) ->
          let step =
            {
              chosen = Universe.pattern u pid;
              priority;
              fallback;
              deleted =
                List.filter_map
                  (fun (q, _) ->
                    if Universe.subpattern u q ~of_:pid then Some (Universe.pattern u q)
                    else None)
                  pool;
              priorities = List.map (fun (id, _, f) -> (Universe.pattern u id, f)) scored;
            }
          in
          go (i + 1)
            (delete_subpatterns u ~of_:pid pool)
            (Color.Set.union covered (Universe.color_set u pid))
            (step :: steps)
    end
  in
  let steps = go 0 pool Color.Set.empty [] in
  { patterns = List.map (fun s -> s.chosen) steps; steps }

let select_report ?(params = default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Select.select: pdef must be >= 1";
  Obs.span "select" @@ fun () ->
  let g = Classify.graph classify in
  let cover = Array.make (Dfg.node_count g) 0 in
  let report =
    run (Classify.universe classify) ~capacity:(Classify.capacity classify)
      ~colors:(Color.Set.of_list (Dfg.colors g)) ~pdef
      ~score:(fun ~size freq -> priority ~params ~cover ~freq ~size)
      ~commit:(add_cover cover)
      (Classify.fold_ids (fun id ~count:_ ~freq acc -> (id, freq) :: acc) classify []
      |> List.rev)
  in
  let steps = report.steps in
  Obs.count "select.candidates" (Classify.pattern_count classify);
  Obs.count "select.steps" (List.length steps);
  Obs.count "select.fallbacks"
    (List.length (List.filter (fun s -> s.fallback) steps));
  Obs.count "select.deleted"
    (List.fold_left (fun acc s -> acc + List.length s.deleted) 0 steps);
  report

let select ?params ~pdef classify = (select_report ?params ~pdef classify).patterns
