module Pattern = Mps_pattern.Pattern
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs

type entry = {
  strategy : string;
  patterns : Pattern.t list;
  cycles : int;
}

type outcome = { best : entry; all : entry list }

(* Each strategy is one thunk producing its pattern set: independent of
   the others, so the set runs unchanged on one domain or many.  List
   order is the tie-break order (cheaper strategies first), and the pool
   returns results in submission order, so ranking is identical however
   the work is spread.  The searches that already cost their own result
   (beam, annealing) return the known cycle count; every other set is
   costed after the fan-in.  This registry is also the auto-selector's
   backend space ({!Auto}): dispatching one named thunk from here is what
   guarantees auto returns some portfolio member's exact result.  Names
   and thunks come from this one list, so the two cannot drift apart.
   [eval] reaches only the searches that cost inside their thunk. *)
let registry :
    (string
    * (eval:Eval.t option -> pdef:int -> Classify.t -> Pattern.t list * int option))
    list =
  [
    ("eq8", fun ~eval:_ ~pdef classify -> (Select.select ~pdef classify, None));
    ( "harvest:greedy",
      fun ~eval:_ ~pdef classify ->
        ( Pattern_source.harvest ~method_:Pattern_source.Greedy
            ~capacity:(Classify.capacity classify) ~pdef (Classify.graph classify),
          None ) );
    ( "beam",
      fun ~eval ~pdef classify ->
        let b = Beam.search ?eval ~pdef classify in
        (b.Beam.patterns, Some b.Beam.cycles) );
  ]

let strategies ?eval ~pdef classify =
  List.map (fun (name, run) -> (name, fun () -> run ~eval ~pdef classify)) registry

let strategy_names = List.map fst registry

let cost_entry ectx (strategy, patterns, known) =
  let cycles =
    match known with
    | Some c -> c
    | None ->
        if patterns = [] then max_int
        else (
          match Eval.cycles ectx patterns with
          | c -> c
          | exception Eval.Unschedulable _ -> max_int)
  in
  { strategy; patterns; cycles }

let run ?pool ?annealing ~pdef classify =
  if pdef < 1 then invalid_arg "Portfolio.run: pdef must be >= 1";
  Obs.span "portfolio" @@ fun () ->
  (* No [eval] for the strategies: the pool may run them on other
     domains, and a context belongs to one. *)
  let tasks : (unit -> string * Pattern.t list * int option) list =
    List.map
      (fun (name, thunk) ->
        fun () ->
          let patterns, known = thunk () in
          (name, patterns, known))
      (strategies ~pdef classify)
    @
    match annealing with
    | None -> []
    | Some (rng, iterations) ->
        [
          (fun () ->
            let a = Annealing.search ~iterations rng ~pdef classify in
            ("annealing", a.Annealing.patterns, Some a.Annealing.cycles));
        ]
  in
  Obs.count "portfolio.strategies" (List.length tasks);
  let produced =
    match pool with
    | Some pool -> Pool.map pool ~f:(fun task -> task ()) tasks
    | None -> List.map (fun task -> task ()) tasks
  in
  (* Fan-in: cost the un-costed sets on one shared evaluation context in
     submission order — strategies that agree on a pattern set share one
     schedule through the memo cache, and the cache stays single-domain. *)
  let ectx = Eval.make (Classify.graph classify) in
  let ranked =
    List.stable_sort
      (fun a b -> compare a.cycles b.cycles)
      (List.map (cost_entry ectx) produced)
  in
  { best = List.hd ranked; all = ranked }
