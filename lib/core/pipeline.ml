module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Select = Mps_select.Select
module Exact = Mps_select.Exact
module Auto = Mps_select.Auto
module Features = Mps_select.Features
module Mp = Mps_scheduler.Multi_pattern
module Eval = Mps_scheduler.Eval
module Schedule = Mps_scheduler.Schedule
module Cluster = Mps_clustering.Cluster
module Tile = Mps_montium.Tile
module Allocation = Mps_montium.Allocation
module Config_space = Mps_montium.Config_space
module Energy = Mps_montium.Energy
module Simulator = Mps_montium.Simulator
module Program = Mps_frontend.Program
module Obs = Mps_obs.Obs

type options = {
  capacity : int;
  pdef : int;
  span_limit : int option;
  enumeration_budget : int option;
  selection : Select.params;
  strategy : Auto.strategy;
  priority : Mp.pattern_priority;
  cluster : bool;
  tile : Tile.t;
}

let default_options =
  {
    capacity = Tile.default.Tile.alu_count;
    pdef = 4;
    span_limit = Some 1;
    enumeration_budget = Some 5_000_000;
    selection = Select.default_params;
    strategy = Auto.Paper;
    priority = Mp.F2;
    cluster = false;
    tile = Tile.default;
  }

type t = {
  options : options;
  graph : Dfg.t;
  clustering : Cluster.t option;
  pattern_pool : int;
  antichains : int;
  truncated : bool;
  patterns : Pattern.t list;
  auto : Auto.outcome option;
  schedule : Schedule.t;
  cycles : int;
  config : Config_space.t;
}

let validate_options ~who options =
  if options.capacity < 1 then invalid_arg (who ^ ": capacity < 1");
  if options.pdef < 1 then invalid_arg (who ^ ": pdef < 1")

(* The flow's selection step: Fig. 7 (Eq. 8/9) under [Paper], the one
   backend the rule table dispatches under [Auto].  [eval] is a context for
   the classified graph sharing its universe: auto reuses its analyses for
   the feature vector and costs its backend's set on it. *)
let selection ?(options = default_options) ?features ~eval classify =
  match options.strategy with
  | Auto.Paper ->
      ( Select.select_report ~params:options.selection ~pdef:options.pdef
          classify,
        None )
  | Auto.Auto rules ->
      let outcome =
        Auto.select ~rules ?features ~eval ~pdef:options.pdef classify
      in
      ({ Select.patterns = outcome.Auto.patterns; steps = [] }, Some outcome)

(* Selection + scheduling + configuration on an already-computed
   classification — the part of the flow every request after the first hits
   in a warm serve session.  [eval], when given, must be a context for the
   classified graph sharing the classification's universe; the schedule it
   produces is identical to a fresh context's (see {!Mps_scheduler.Eval}),
   only the per-graph analyses are amortized.  [chosen], when given, is
   {!selection}'s result for these options, forced only here, after the
   options were validated. *)
let classified_core ~options ~clustering ~eval ~chosen classify =
  let graph = Classify.graph classify in
  let universe = Classify.universe classify in
  (* The evaluation context is built before selection so the auto strategy
     can reuse its analyses for feature extraction and cost its backend's
     set on it; building it never emits observability events, so the Paper
     path is byte-identical to the old build-after-selection order. *)
  let ev = match eval with Some ev -> ev | None -> Eval.make ~universe graph in
  let { Select.patterns; _ }, auto =
    match chosen with
    | Some chosen -> Lazy.force chosen
    | None -> selection ~options ~eval:ev classify
  in
  (* Full-fidelity schedule through an evaluation context — the same
     engine every search strategy costs candidates on. *)
  let { Mp.schedule; _ } =
    Eval.schedule ~priority:options.priority ev ~patterns
  in
  {
    options;
    graph;
    clustering;
    pattern_pool = Classify.pattern_count classify;
    antichains = Classify.total_antichains classify;
    truncated = Classify.truncated classify;
    patterns;
    auto;
    schedule;
    cycles = Schedule.cycles schedule;
    config =
      Obs.span "config" (fun () ->
          Config_space.of_schedule ~tile:options.tile schedule);
  }

let run_classified ?(options = default_options) ?clustering ?eval
    ?selection:chosen classify =
  validate_options ~who:"Pipeline.run_classified" options;
  Obs.span "pipeline" @@ fun () ->
  classified_core ~options ~clustering ~eval ~chosen classify

let run ?pool ?(options = default_options) dfg =
  validate_options ~who:"Pipeline.run" options;
  Obs.span "pipeline" @@ fun () ->
  let clustering =
    if options.cluster then Some (Obs.span "cluster" (fun () -> Cluster.mac dfg))
    else None
  in
  let graph =
    match clustering with Some c -> c.Cluster.clustered | None -> dfg
  in
  let ctx = Enumerate.make_ctx graph in
  (* The pipeline owns the pattern universe: classification interns every
     distinct pattern into it (per-domain scratch universes are merged
     deterministically under a pool), selection reuses its dominance
     matrix, and the scheduler hash-conses Pdef through it. *)
  let universe = Universe.create () in
  let classify =
    Classify.compute ?pool ?span_limit:options.span_limit
      ?budget:options.enumeration_budget ~capacity:options.capacity ~universe ctx
  in
  (* The scheduler reads the levels and reachability the enumeration
     context already computed. *)
  let eval =
    Eval.make ~universe ~levels:(Enumerate.ctx_levels ctx)
      ~reachability:(Enumerate.ctx_reachability ctx) graph
  in
  classified_core ~options ~clustering ~eval:(Some eval) ~chosen:None classify

type certification = {
  heuristic : Pattern.t list;
  heuristic_cycles : int;
  exact : Exact.certificate;
  gap_percent : float;
}

let certified_core ~options ?max_nodes ?bans ?heuristic classify =
  let graph = Classify.graph classify in
  let heuristic =
    match heuristic with
    | Some h -> Lazy.force h
    | None ->
        Select.select ~params:options.selection ~pdef:options.pdef classify
  in
  (* The heuristic's set seeds the branch-and-bound as its warm-start
     incumbent, so the certified optimum can only tie or beat it and the
     gap is never negative.  Both sides are costed canonically (see
     Exact.canonical_order). *)
  let exact =
    Exact.search ~priority:options.priority ?max_nodes
      ~seeds:[ heuristic ] ?bans ~pdef:options.pdef classify
  in
  let heuristic_cycles =
    match
      Eval.cycles ~priority:options.priority (Eval.make graph)
        (Exact.canonical_order classify heuristic)
    with
    | c -> c
    | exception Eval.Unschedulable _ -> max_int
  in
  let gap_percent =
    if exact.Exact.optimal_cycles = max_int || exact.Exact.optimal_cycles = 0
    then 0.
    else
      float_of_int (heuristic_cycles - exact.Exact.optimal_cycles)
      /. float_of_int exact.Exact.optimal_cycles
      *. 100.
  in
  { heuristic; heuristic_cycles; exact; gap_percent }

let certify_classified ?(options = default_options) ?max_nodes ?bans ?heuristic
    classify =
  validate_options ~who:"Pipeline.certify_classified" options;
  Obs.span "certify" @@ fun () ->
  certified_core ~options ?max_nodes ?bans ?heuristic classify

let certify ?pool ?(options = default_options) ?max_nodes dfg =
  validate_options ~who:"Pipeline.certify" options;
  Obs.span "certify" @@ fun () ->
  let graph =
    if options.cluster then (Cluster.mac dfg).Cluster.clustered else dfg
  in
  let classify =
    Classify.compute ?pool ?span_limit:options.span_limit
      ?budget:options.enumeration_budget ~capacity:options.capacity
      (Enumerate.make_ctx graph)
  in
  certified_core ~options ?max_nodes classify

type mapped = {
  program : Program.t;
  pipeline : t;
  allocation : Allocation.t;
  energy : Energy.breakdown;
}

let map_program ?pool ?(options = default_options) program =
  (* Clustering on a program goes through the executable MAC fusion, so the
     instruction view stays in lockstep with the scheduled graph. *)
  let program =
    if options.cluster then Mps_clustering.Program_fuse.fuse program else program
  in
  let options = { options with cluster = false } in
  let pipeline = run ?pool ~options (Program.dfg program) in
  match
    Obs.span "allocate" (fun () ->
        Allocation.allocate ~tile:options.tile program pipeline.schedule)
  with
  | Error m -> Error m
  | Ok allocation ->
      let energy =
        Obs.span "energy" (fun () ->
            Energy.estimate ~tile:options.tile program pipeline.schedule
              allocation)
      in
      Ok { program; pipeline; allocation; energy }

let verify mapped ~env =
  Simulator.check_against_reference ~tile:mapped.pipeline.options.tile
    mapped.program mapped.pipeline.schedule mapped.allocation ~env

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>pipeline: %d nodes, %d antichains over %d patterns@,\
     selected (%d): %a@,\
     schedule: %d cycles, config table %d/%s@]"
    (Dfg.node_count t.graph) t.antichains t.pattern_pool (List.length t.patterns)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Pattern.pp)
    t.patterns t.cycles t.config.Config_space.table_size
    (if t.config.Config_space.fits then "ok" else "OVERFLOW")
