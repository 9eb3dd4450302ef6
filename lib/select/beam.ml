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

(* One partial selection: chosen pattern ids (reversed), its Eq. 8
   coverage, covered colors, the surviving pool as a mask over the flat
   pool, and the heuristic score that ranks beams (sum of the Eq. 8
   priorities of its picks). *)
type state = {
  chosen : Id.t list;
  coverage : Select.coverage;
  covered : Color.Set.t;
  alive : Bytes.t;
  heuristic : float;
}

let search ?eval ?(width = 4) ?(params = Select.default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Beam.search: pdef must be >= 1";
  if width < 1 then invalid_arg "Beam.search: width must be >= 1";
  let g = Classify.graph classify in
  (match eval with
  | Some ctx when Eval.graph ctx != g ->
      invalid_arg "Beam.search: eval is a context for another graph"
  | _ -> ());
  Obs.span "beam" @@ fun () ->
  let capacity = Classify.capacity classify in
  let u = Classify.universe classify in
  let colors = Color.Set.of_list (Dfg.colors g) in
  let pool =
    Select.pool u ~colors
      (Classify.fold_ids (fun id ~count:_ ~freq acc -> (id, freq) :: acc) classify []
      |> List.rev)
  in
  let n = Array.length pool.Select.ids in
  let initial =
    {
      chosen = [];
      coverage = Select.coverage ~params (Dfg.node_count g);
      covered = Color.Set.empty;
      alive = Select.alive pool;
      heuristic = 0.0;
    }
  in
  (* The [width] best scores of one step, best first: a stable pick, so
     equal scores keep pool order, as a stable sort would. *)
  let keep = min width n in
  let top_score = Array.make keep 0.0 and top = Array.make keep 0 in
  (* One Fig. 7 step from [state], branching on the [width] best Eq. 8
     scores among the candidates Eq. 9 admits instead of the single best. *)
  let extend step state =
    let apply pid freq score =
      let coverage = Select.copy_coverage state.coverage in
      Select.commit coverage freq;
      let alive = Bytes.copy state.alive in
      Select.delete pool ~alive ~of_:pid;
      {
        chosen = pid :: state.chosen;
        coverage;
        covered = Color.Set.union state.covered (Universe.color_set u pid);
        alive;
        heuristic = state.heuristic +. score;
      }
    in
    let a =
      Select.admission pool ~capacity ~covered:state.covered
        ~remaining_picks:(pdef - step - 1)
    in
    let kept = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.unsafe_get state.alive k <> '\000' && Select.admits pool a k then begin
        let s =
          Select.eq8 state.coverage ~freq:pool.Select.payloads.(k)
            ~size:pool.Select.sizes.(k)
        in
        (* Slide past every kept score this one does not beat. *)
        let j = ref !kept in
        while !j > 0 && compare s top_score.(!j - 1) > 0 do
          decr j
        done;
        if !j < keep then begin
          let last = min !kept (keep - 1) in
          Array.blit top_score !j top_score (!j + 1) (last - !j);
          Array.blit top !j top (!j + 1) (last - !j);
          top_score.(!j) <- s;
          top.(!j) <- k;
          kept := last + 1
        end
      end
    done;
    if !kept = 0 then
      match Select.fallback u ~capacity ~colors ~covered:state.covered with
      | None -> [ state ]
      | Some pid -> [ apply pid [||] 0.0 ] (* no antichains, no coverage *)
    else
      List.init !kept (fun r ->
          let k = top.(r) in
          apply pool.Select.ids.(k) pool.Select.payloads.(k) top_score.(r))
  in
  let rec steps i beam =
    if i = pdef then beam
    else begin
      let expanded = List.concat_map (extend i) beam in
      Obs.count "beam.expansions" (List.length expanded);
      (* A beam whose every state neither picks nor fabricates is a fixed
         point: re-ranking it reproduces its order, so later steps change
         nothing. *)
      if List.equal ( == ) expanded beam then beam
      else begin
        (* Keep the [width] most promising partial selections; dedupe on
           the chosen multiset so permutations don't crowd the beam.  The
           key stays the sorted pattern list (not ids): the dedupe order
           seeds the stable heuristic sort's tie-breaks, and ids are
           allocated in visit order, not pattern order. *)
        let key st = List.sort Pattern.compare (List.map (Universe.pattern u) st.chosen) in
        let deduped =
          List.map (fun st -> (key st, st)) expanded
          |> List.sort_uniq (fun (ka, _) (kb, _) -> compare ka kb)
          |> List.map snd
        in
        let ranked =
          List.sort (fun a b -> compare b.heuristic a.heuristic) deduped
        in
        steps (i + 1) (List.filteri (fun k _ -> k < width) ranked)
      end
    end
  in
  let finalists = steps 0 [ initial ] in
  (* Finalists are scored on one shared evaluation context, the caller's
     when given: the graph analyses run once, and the memo cache absorbs
     any set the beam reaches twice, in this search or an earlier one.
     They are costed by pattern, so the ids of this classification's
     universe are never read in the context's. *)
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
