module Pattern = Mps_pattern.Pattern
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Obs = Mps_obs.Obs

type op = Le | Gt

type cond = { feature : string; op : op; threshold : float }

type rule = { conds : cond list; backend : string; provenance : string }

type rules = rule list

(* Fit on the bench corpus (huge tier included) by `bench --fit-selector`,
   which exits 1 unless its refit reproduces this table exactly.  Reading
   the table:
   harvest:greedy wins the small kernels (its exhaustive greedy harvest
   is near-exact there); beam takes the mid-size band where local search
   recovers what one greedy pass misses; above that, the largest
   graphs split on color balance — with no strongly dominant color
   (huge-grid, fft16, fir16) the greedy harvest stays competitive, while
   the dominant-color chain-like huge-deep falls through to eq8's
   frequency heuristic. *)
let builtin_rules =
  [
    {
      conds = [ { feature = "edges"; op = Le; threshold = 39.5 } ];
      backend = "harvest:greedy";
      provenance =
        "3dft adv-mono adv-rainbow adv-wide dft4 fig4 horner16 iir4 mm222 \
         mm232 w3dft";
    };
    {
      conds = [ { feature = "nodes"; op = Le; threshold = 150.5 } ];
      backend = "beam";
      provenance =
        "adv-big adv-deep adv-dense dct8 fft8 fir8 huge-wide w5dft";
    };
    {
      conds =
        [ { feature = "max_color_share"; op = Le; threshold = 0.608870395344 } ];
      backend = "harvest:greedy";
      provenance = "fft16 fir16 huge-grid";
    };
    { conds = []; backend = "eq8"; provenance = "default: huge-deep" };
  ]

let validate rules =
  let rec go i = function
    | [] -> Error "empty rule table"
    | [ { conds = []; _ } ] -> Ok rules
    | [ _ ] -> Error (Printf.sprintf "rule %d: last rule must be unconditional" i)
    | { conds = []; _ } :: _ :: _ ->
        Error
          (Printf.sprintf
             "rule %d: unconditional rule before the end is unreachable below" i)
    | _ :: rest -> go (i + 1) rest
  in
  let check_rule i r =
    if not (List.mem r.backend Portfolio.strategy_names) then
      Error (Printf.sprintf "rule %d: unknown backend %S" i r.backend)
    else
      List.fold_left
        (fun acc c ->
          match acc with
          | Error _ -> acc
          | Ok () ->
              if List.mem c.feature Features.names then Ok ()
              else Error (Printf.sprintf "rule %d: unknown feature %S" i c.feature))
        (Ok ()) r.conds
  in
  let rec check i = function
    | [] -> go 0 rules
    | r :: rest -> ( match check_rule i r with Ok () -> check (i + 1) rest | Error e -> Error e)
  in
  check 0 rules

(* {1 Selection} *)

type outcome = {
  backend : string;
  rule_index : int;
  rule : rule;
  features : Features.t;
  patterns : Pattern.t list;
  cycles : int;
}

let cond_holds features c =
  match Features.get features c.feature with
  | None -> false
  | Some v -> ( match c.op with Le -> v <= c.threshold | Gt -> v > c.threshold)

let match_rule rules features =
  let rec go i = function
    | [] -> assert false (* validate: terminal rule is unconditional *)
    | r :: rest ->
        if List.for_all (cond_holds features) r.conds then (i, r)
        else go (i + 1) rest
  in
  go 0 rules

let select ?(rules = builtin_rules) ?features ?eval ?beam_width ~pdef classify =
  if pdef < 1 then invalid_arg "Auto.select: pdef must be >= 1";
  (match validate rules with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Auto.select: invalid rule table: " ^ e));
  Obs.span "auto" @@ fun () ->
  let g = Classify.graph classify in
  let features =
    match (features, eval) with
    | Some f, _ -> f
    | None, Some e ->
        Features.extract_with ~levels:(Eval.levels e)
          ~reachability:(Eval.reachability e) g
    | None, None -> Features.extract g
  in
  let rule_index, rule = match_rule rules features in
  let thunk =
    match List.assoc_opt rule.backend (Portfolio.strategies ?beam_width ~pdef classify) with
    | Some t -> t
    | None -> assert false (* validate: backend is a strategy_names member *)
  in
  let patterns, known = thunk () in
  let cycles =
    match known with
    | Some c -> c
    | None ->
        if patterns = [] then max_int
        else
          let ectx = match eval with Some e -> e | None -> Eval.make g in
          (match Eval.cycles ectx patterns with
          | c -> c
          | exception Eval.Unschedulable _ -> max_int)
  in
  Obs.count "select.auto.requests" 1;
  Obs.observe "select.auto.rule" rule_index;
  if cycles <> max_int then Obs.observe "select.auto.cycles" cycles;
  Obs.count ("select.auto.backend." ^ rule.backend) 1;
  { backend = rule.backend; rule_index; rule; features; patterns; cycles }

(* {1 Strategy choice} *)

type strategy = Paper | Auto of rules

let strategy_of_string = function
  | "paper" | "eq8" -> Ok Paper
  | "auto" -> Ok (Auto builtin_rules)
  | s -> Error (Printf.sprintf "unknown strategy %S (want \"eq8\" or \"auto\")" s)

(* {1 Offline fitting} *)

type example = {
  name : string;
  example_features : Features.t;
  costs : (string * int) list;
}

let acceptable_backends tolerance ex =
  let best =
    List.fold_left (fun acc (_, c) -> min acc c) max_int ex.costs
  in
  if best = max_int then List.map fst ex.costs
  else
    let limit = float_of_int best *. (1.0 +. tolerance) in
    List.filter_map
      (fun (b, c) ->
        if c <> max_int && float_of_int c <= limit then Some b else None)
      ex.costs

(* A threshold as [bench --fit-selector] prints it, 12 significant digits:
   pasting the printed table into [builtin_rules] then gives back exactly
   the fitted one, so the bench can gate on structural equality. *)
let printed x = float_of_string (Printf.sprintf "%.12g" x)

let fit ?(tolerance = 0.05) examples =
  if examples = [] then invalid_arg "Auto.fit: empty example list";
  let acc_tbl = Hashtbl.create 16 in
  List.iter
    (fun ex -> Hashtbl.replace acc_tbl ex.name (acceptable_backends tolerance ex))
    examples;
  let accepts ex backend = List.mem backend (Hashtbl.find acc_tbl ex.name) in
  let feature_of ex name =
    match Features.get ex.example_features name with
    | Some v -> v
    | None -> assert false
  in
  let provenance_of covered =
    String.concat " " (List.sort compare (List.map (fun ex -> ex.name) covered))
  in
  (* The best pure single-condition rule on [remaining], walking candidates
     in tie-break order (portfolio backend order, feature order, Le before
     Gt, ascending threshold) and keeping only strictly better coverage. *)
  let best_pure remaining =
    let best = ref None in
    let consider backend cond =
      let covered = List.filter (fun ex -> cond_holds ex.example_features cond) remaining in
      if covered <> [] && List.for_all (fun ex -> accepts ex backend) covered then
        let n = List.length covered in
        match !best with
        | Some (_, _, m) when m >= n -> ()
        | _ -> best := Some ({ conds = [ cond ]; backend; provenance = provenance_of covered }, covered, n)
    in
    List.iter
      (fun backend ->
        List.iter
          (fun feature ->
            let values =
              List.map (fun ex -> feature_of ex feature) remaining
              |> List.sort_uniq compare
            in
            let thresholds =
              let rec mids = function
                | a :: (b :: _ as rest) ->
                    printed ((a +. b) /. 2.0) :: mids rest
                | _ -> []
              in
              mids values
            in
            List.iter
              (fun op ->
                List.iter
                  (fun threshold -> consider backend { feature; op; threshold })
                  thresholds)
              [ Le; Gt ])
          Features.names)
      Portfolio.strategy_names;
    !best
  in
  let default_rule remaining =
    let pool = if remaining = [] then examples else remaining in
    let backend =
      List.fold_left
        (fun acc backend ->
          let n = List.length (List.filter (fun ex -> accepts ex backend) pool) in
          match acc with
          | Some (_, m) when m >= n -> acc
          | _ -> Some (backend, n))
        None Portfolio.strategy_names
      |> Option.get |> fst
    in
    { conds = []; backend; provenance = "default: " ^ provenance_of pool }
  in
  let rec go remaining acc =
    match remaining with
    | [] -> List.rev (default_rule remaining :: acc)
    | _ -> (
        match best_pure remaining with
        | None -> List.rev (default_rule remaining :: acc)
        | Some (rule, covered, _) ->
            let rest =
              List.filter (fun ex -> not (List.memq ex covered)) remaining
            in
            go rest (rule :: acc))
  in
  go examples []
