module Listx = Mps_util.Listx
module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Id = Mps_pattern.Pattern.Id
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Select = Mps_select.Select
module Beam = Mps_select.Beam
module Shared = Mps_select.Shared

let balance ~params ~cover ~freq =
  let acc = ref 0.0 in
  Array.iteri
    (fun n h ->
      if h > 0 then
        acc :=
          !acc
          +. (float_of_int h /. (float_of_int cover.(n) +. params.Select.epsilon)))
    freq;
  !acc

let priority ~params ~cover ~freq ~size =
  balance ~params ~cover ~freq +. (params.Select.alpha *. float_of_int (size * size))

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
  let chosen = Universe.pattern u of_ in
  List.filter
    (fun (q, _) -> not (Pattern.subpattern (Universe.pattern u q) ~of_:chosen))
    pool

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
            Option.map (fun id -> (id, 0.0, true)) (fallback u ~capacity ~colors ~covered)
      in
      match pick with
      | None -> List.rev steps
      | Some (pid, priority, fallback) ->
          let step =
            {
              Select.chosen = Universe.pattern u pid;
              priority;
              fallback;
              deleted =
                List.filter_map
                  (fun (q, _) ->
                    let q = Universe.pattern u q in
                    if Pattern.subpattern q ~of_:(Universe.pattern u pid) then Some q
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
  { Select.patterns = List.map (fun s -> s.Select.chosen) steps; steps }

let pool classify =
  Classify.fold_ids (fun id ~count:_ ~freq acc -> (id, freq) :: acc) classify []
  |> List.rev

let select_report ?(params = Select.default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Select.select: pdef must be >= 1";
  let g = Classify.graph classify in
  let cover = Array.make (Dfg.node_count g) 0 in
  run (Classify.universe classify) ~capacity:(Classify.capacity classify)
    ~colors:(Color.Set.of_list (Dfg.colors g)) ~pdef
    ~score:(fun ~size freq -> priority ~params ~cover ~freq ~size)
    ~commit:(add_cover cover) (pool classify)

type state = {
  chosen : Id.t list;
  cover : int array;
  covered : Color.Set.t;
  pool : (Id.t * int array) list;
  heuristic : float;
}

let beam_search ?eval ?(width = 4) ?(params = Select.default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Beam.search: pdef must be >= 1";
  if width < 1 then invalid_arg "Beam.search: width must be >= 1";
  let g = Classify.graph classify in
  let capacity = Classify.capacity classify in
  let u = Classify.universe classify in
  let colors = Color.Set.of_list (Dfg.colors g) in
  let initial =
    {
      chosen = [];
      cover = Array.make (Dfg.node_count g) 0;
      covered = Color.Set.empty;
      pool = pool classify;
      heuristic = 0.0;
    }
  in
  let extend step state =
    let apply pid freq score =
      let cover = Array.copy state.cover in
      add_cover cover freq;
      {
        chosen = pid :: state.chosen;
        cover;
        covered = Color.Set.union state.covered (Universe.color_set u pid);
        pool = delete_subpatterns u ~of_:pid state.pool;
        heuristic = state.heuristic +. score;
      }
    in
    let admits =
      color_condition u ~capacity ~colors ~covered:state.covered
        ~remaining_picks:(pdef - step - 1)
    in
    let scored =
      List.filter_map
        (fun (id, freq) ->
          if admits id then
            let s = priority ~params ~cover:state.cover ~freq ~size:(Universe.size u id) in
            Some (s, id, freq)
          else None)
        state.pool
    in
    match scored with
    | [] -> (
        match fallback u ~capacity ~colors ~covered:state.covered with
        | None -> [ state ]
        | Some pid -> [ apply pid [||] 0.0 ])
    | _ ->
        List.sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1) scored
        |> List.filteri (fun i _ -> i < width)
        |> List.map (fun (s, id, freq) -> apply id freq s)
  in
  let rec steps i beam =
    if i = pdef then beam
    else begin
      let expanded = List.concat_map (extend i) beam in
      let key st = List.sort Pattern.compare (List.map (Universe.pattern u) st.chosen) in
      let deduped =
        List.map (fun st -> (key st, st)) expanded
        |> List.sort_uniq (fun (ka, _) (kb, _) -> compare ka kb)
        |> List.map snd
      in
      let ranked = List.sort (fun a b -> compare b.heuristic a.heuristic) deduped in
      steps (i + 1) (List.filteri (fun k _ -> k < width) ranked)
    end
  in
  let finalists = steps 0 [ initial ] in
  let ectx = match eval with Some ctx -> ctx | None -> Eval.make g in
  let evaluated = ref 0 in
  let best =
    List.fold_left
      (fun acc state ->
        let patterns = List.rev_map (Universe.pattern u) state.chosen in
        if patterns = [] then acc
        else begin
          match Eval.cycles ectx patterns with
          | exception Eval.Unschedulable _ -> acc
          | c -> (
              incr evaluated;
              match acc with Some (_, bc) when bc <= c -> acc | _ -> Some (patterns, c))
        end)
      None finalists
  in
  match best with
  | Some (patterns, cycles) -> { Beam.patterns; cycles; evaluated_sets = !evaluated }
  | None ->
      let patterns = (select_report ~params ~pdef classify).Select.patterns in
      let cycles =
        match Eval.cycles ectx patterns with
        | c -> c
        | exception Eval.Unschedulable _ -> max_int
      in
      { Beam.patterns; cycles; evaluated_sets = !evaluated + 1 }


let shared_patterns ?(params = Select.default_params) ~pdef kernels =
  let capacity = Classify.capacity (List.hd kernels).Shared.classify in
  let all_colors =
    List.fold_left
      (fun acc k -> Color.Set.union acc (Color.Set.of_list (Dfg.colors k.Shared.graph)))
      Color.Set.empty kernels
  in
  let u = Universe.create () in
  let entries_of = Hashtbl.create 64 in
  List.iteri
    (fun ki k ->
      Classify.fold
        (fun p ~count:_ ~freq () ->
          let id = Universe.intern u p in
          let prev = Option.value (Hashtbl.find_opt entries_of id) ~default:[] in
          Hashtbl.replace entries_of id ((ki, freq) :: prev))
        k.Shared.classify ())
    kernels;
  let cover =
    Array.of_list (List.map (fun k -> Array.make (Dfg.node_count k.Shared.graph) 0) kernels)
  in
  let score ~size entries =
    List.fold_left
      (fun acc (ki, freq) -> acc +. balance ~params ~cover:cover.(ki) ~freq)
      (params.Select.alpha *. float_of_int (size * size))
      entries
  in
  (run u ~capacity ~colors:all_colors ~pdef ~score
     ~commit:(List.iter (fun (ki, freq) -> add_cover cover.(ki) freq))
     (Universe.sorted_ids u |> Array.to_list
     |> List.map (fun id -> (id, Hashtbl.find entries_of id))))
    .Select.patterns
