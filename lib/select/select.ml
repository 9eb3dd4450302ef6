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

(* --- Eq. 8 against kept denominators --- *)

type coverage = { params : params; cover : int array; den : float array }

let coverage ~params nodes =
  {
    params;
    cover = Array.make nodes 0;
    den = Array.make nodes (float_of_int 0 +. params.epsilon);
  }

let copy_coverage c = { c with cover = Array.copy c.cover; den = Array.copy c.den }

let commit c freq =
  for n = 0 to Array.length freq - 1 do
    let h = Array.unsafe_get freq n in
    if h <> 0 then begin
      let k = c.cover.(n) + h in
      c.cover.(n) <- k;
      c.den.(n) <- float_of_int k +. c.params.epsilon
    end
  done

(* Inlined so [eq8] keeps the sum unboxed. *)
let[@inline] balance c ~freq =
  let den = c.den in
  let acc = ref 0.0 in
  for n = 0 to Array.length freq - 1 do
    let h = Array.unsafe_get freq n in
    if h > 0 then acc := !acc +. (float_of_int h /. den.(n))
  done;
  !acc

let eq8 c ~freq ~size = balance c ~freq +. (c.params.alpha *. float_of_int (size * size))

(* --- the flat pool and Eq. 9 --- *)

(* A color is a character, so a covered-flag table indexed by its code
   holds any number of colors. *)
type hues = { of_candidate : string array; wanted : string }

type 'a pool = {
  universe : Universe.t;
  ids : Pattern.Id.t array;
  payloads : 'a array;
  sizes : int array;
  hues : hues;
}

let spell set =
  let b = Bytes.create (Color.Set.cardinal set) in
  ignore
    (Color.Set.fold
       (fun c i ->
         Bytes.unsafe_set b i (Color.to_char c);
         i + 1)
       set 0);
  Bytes.unsafe_to_string b

let pool u ~colors candidates =
  let ids = Array.of_list (List.map fst candidates) in
  {
    universe = u;
    ids;
    payloads = Array.of_list (List.map snd candidates);
    sizes = Array.map (Universe.size u) ids;
    hues =
      {
        of_candidate = Array.map (fun id -> spell (Universe.color_set u id)) ids;
        wanted = spell colors;
      };
  }

let alive p = Bytes.make (Array.length p.ids) '\001'

type admission = { covered : Bytes.t; threshold : int }

let uncovered covered hues =
  let k = ref 0 in
  for i = 0 to String.length hues - 1 do
    if Bytes.unsafe_get covered (Char.code (String.unsafe_get hues i)) = '\000' then
      incr k
  done;
  !k

let admission p ~capacity ~covered ~remaining_picks =
  let flags = Bytes.make 256 '\000' in
  Color.Set.iter
    (fun c -> Bytes.unsafe_set flags (Char.code (Color.to_char c)) '\001')
    covered;
  let missing = uncovered flags p.hues.wanted in
  { covered = flags; threshold = missing - (capacity * remaining_picks) }

let admits p a k = uncovered a.covered p.hues.of_candidate.(k) >= a.threshold

let fallback u ~capacity ~colors ~covered =
  match Color.Set.elements (Color.Set.diff colors covered) with
  | [] -> None
  | uncovered ->
      Some (Universe.intern u (Pattern.of_colors (Listx.take capacity uncovered)))

let delete p ~alive ~of_ =
  let chosen = Universe.pattern p.universe of_ in
  for k = 0 to Array.length p.ids - 1 do
    if
      Bytes.unsafe_get alive k <> '\000'
      && Pattern.subpattern (Universe.pattern p.universe p.ids.(k)) ~of_:chosen
    then Bytes.unsafe_set alive k '\000'
  done

(* --- Fig. 7 --- *)

let run u ~capacity ~colors ~pdef ~score ~commit candidates =
  let p = pool u ~colors candidates in
  let n = Array.length p.ids in
  let live = alive p in
  let scores = Array.make n 0.0 in
  let rec go i covered steps =
    if i >= pdef then List.rev steps
    else begin
      let a = admission p ~capacity ~covered ~remaining_picks:(pdef - i - 1) in
      (* The first strictly best positive score: ties go to the earlier
         pool entry. *)
      let best = ref (-1) in
      for k = 0 to n - 1 do
        if Bytes.unsafe_get live k <> '\000' then begin
          let f = if admits p a k then score ~size:p.sizes.(k) p.payloads.(k) else 0.0 in
          scores.(k) <- f;
          if f > 0.0 && (!best < 0 || f > scores.(!best)) then best := k
        end
      done;
      let pick =
        if !best >= 0 then begin
          commit p.payloads.(!best);
          Some (p.ids.(!best), scores.(!best), false)
        end
        else
          (* No candidate works: fabricate from uncovered colors (up to
             C).  With nothing uncovered and an empty viable pool, more
             patterns cannot help; stop early. *)
          Option.map (fun id -> (id, 0.0, true)) (fallback u ~capacity ~colors ~covered)
      in
      match pick with
      | None -> List.rev steps
      | Some (pid, priority, fallback) ->
          (* The step's evidence in pool order, deleting as it goes. *)
          let chosen = Universe.pattern u pid in
          let priorities = ref [] and deleted = ref [] in
          for k = n - 1 downto 0 do
            if Bytes.unsafe_get live k <> '\000' then begin
              let q = Universe.pattern u p.ids.(k) in
              priorities := (q, scores.(k)) :: !priorities;
              if Pattern.subpattern q ~of_:chosen then begin
                deleted := q :: !deleted;
                Bytes.unsafe_set live k '\000'
              end
            end
          done;
          let step =
            {
              chosen;
              priority;
              fallback;
              deleted = !deleted;
              priorities = !priorities;
            }
          in
          go (i + 1) (Color.Set.union covered (Universe.color_set u pid)) (step :: steps)
    end
  in
  let steps = go 0 Color.Set.empty [] in
  { patterns = List.map (fun s -> s.chosen) steps; steps }

let select_report ?(params = default_params) ~pdef classify =
  if pdef < 1 then invalid_arg "Select.select: pdef must be >= 1";
  Obs.span "select" @@ fun () ->
  let g = Classify.graph classify in
  let c = coverage ~params (Dfg.node_count g) in
  let report =
    run (Classify.universe classify) ~capacity:(Classify.capacity classify)
      ~colors:(Color.Set.of_list (Dfg.colors g)) ~pdef
      ~score:(fun ~size freq -> eq8 c ~freq ~size)
      ~commit:(commit c)
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
