module Listx = Mps_util.Listx
module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
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
  (* Count how often each per-cycle bag occurs.  The data keeps a bag's
     first occurrence, because [Map.update] replaces the key with the
     latest equal bag, which may be a differently built tree.  Bindings
     come in [Pattern.compare] order, so a stable sort by count breaks ties
     by pattern. *)
  let counts = ref Pattern.Map.empty in
  for c = 0 to Schedule.cycles sched - 1 do
    let bag = Schedule.used_at g sched c in
    if Pattern.size bag > 0 then
      counts :=
        Pattern.Map.update bag
          (function None -> Some (bag, 1) | Some (first, k) -> Some (first, k + 1))
          !counts
  done;
  let ranked =
    Pattern.Map.bindings !counts
    |> List.map snd
    |> List.stable_sort (fun (_, c1) (_, c2) -> compare c2 c1)
    |> List.map fst
  in
  (* Keep the most frequent bags, dropping any that is a subpattern of an
     already kept one; reserve the last slot for coverage if needed. *)
  let all_colors = Color.Set.of_list (Dfg.colors g) in
  let rec pick kept covered n = function
    | [] -> (List.rev kept, covered)
    | p :: rest ->
        if n = 0 then (List.rev kept, covered)
        else if List.exists (fun q -> Pattern.subpattern p ~of_:q) kept then
          pick kept covered n rest
        else
          pick (p :: kept)
            (Color.Set.union covered (Pattern.color_set p))
            (n - 1) rest
  in
  let budget =
    (* Leave one slot free when the frequent bags cannot cover the colors;
       at pdef 1 that slot is the whole table. *)
    let covered_by k =
      List.fold_left
        (fun acc p -> Color.Set.union acc (Pattern.color_set p))
        Color.Set.empty
        (List.filteri (fun i _ -> i < k) ranked)
    in
    if Color.Set.subset all_colors (covered_by pdef) then pdef else pdef - 1
  in
  let kept, covered = pick [] Color.Set.empty budget ranked in
  let uncovered = Color.Set.elements (Color.Set.diff all_colors covered) in
  if uncovered = [] then kept
  else
    kept @ [ Pattern.of_colors (Listx.take capacity uncovered) ]
