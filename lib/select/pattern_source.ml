module Listx = Mps_util.Listx
module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Schedule = Mps_scheduler.Schedule

type method_ = Greedy | Force_directed

let harvest ~method_ ~capacity ~pdef g =
  if pdef < 1 then invalid_arg "Pattern_source.harvest: pdef < 1";
  if capacity < 1 then invalid_arg "Pattern_source.harvest: capacity < 1";
  let sched =
    match method_ with
    | Greedy -> Mps_scheduler.Reference.greedy_capacity ~capacity g
    | Force_directed -> Mps_scheduler.Force_directed.schedule ~capacity g
  in
  (* Count how often each per-cycle bag occurs, interning the bags so the
     dedup and the subpattern drops below run on ids. *)
  let u = Universe.create () in
  let counts : (Pattern.Id.t, int) Hashtbl.t = Hashtbl.create 32 in
  for c = 0 to Schedule.cycles sched - 1 do
    let bag = Schedule.used_at g sched c in
    if Pattern.size bag > 0 then begin
      let id = Universe.intern u bag in
      Hashtbl.replace counts id
        (1 + Option.value (Hashtbl.find_opt counts id) ~default:0)
    end
  done;
  let ranked =
    Universe.sorted_ids u |> Array.to_list
    |> List.map (fun id -> (id, Hashtbl.find counts id))
    |> List.sort (fun (i1, c1) (i2, c2) ->
           match compare c2 c1 with
           | 0 -> Pattern.compare (Universe.pattern u i1) (Universe.pattern u i2)
           | c -> c)
    |> List.map fst
  in
  (* Keep the most frequent bags, dropping any that is a subpattern of an
     already kept one; reserve the last slot for coverage if needed. *)
  let all_colors = Color.Set.of_list (Dfg.colors g) in
  let rec pick kept covered n = function
    | [] -> (List.rev kept, covered)
    | id :: rest ->
        if n = 0 then (List.rev kept, covered)
        else if List.exists (fun q -> Universe.subpattern u id ~of_:q) kept then
          pick kept covered n rest
        else
          pick (id :: kept)
            (Color.Set.union covered (Universe.color_set u id))
            (n - 1) rest
  in
  let budget =
    (* Leave one slot free when the frequent bags cannot cover the colors;
       at pdef 1 that slot is the whole table. *)
    let covered_by k =
      List.fold_left
        (fun acc id -> Color.Set.union acc (Universe.color_set u id))
        Color.Set.empty
        (List.filteri (fun i _ -> i < k) ranked)
    in
    if Color.Set.subset all_colors (covered_by pdef) then pdef else pdef - 1
  in
  let kept, covered = pick [] Color.Set.empty budget ranked in
  let kept = List.map (Universe.pattern u) kept in
  let uncovered = Color.Set.elements (Color.Set.diff all_colors covered) in
  if uncovered = [] then kept
  else
    kept @ [ Pattern.of_colors (Listx.take capacity uncovered) ]
