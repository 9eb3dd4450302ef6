(* The operations the workloads time, each in two forms: the end-to-end
   call a user makes ([Pipeline.run], [Pipeline.certify],
   [Server.handle_line]) and a rebuild of the same operation from the
   public calls of each layer, under spans.  The rebuild is checked
   against the end-to-end result, so the per-layer numbers describe the
   work the end-to-end numbers measure. *)

module C = Core
module P = Mps_serve.Protocol
module Server = Mps_serve.Server
module Session = Mps_serve.Session
module Json = C.Json

let options = C.Pipeline.default_options
let now = Mps_util.Clock.now_ns
let seconds ns = Int64.to_float ns /. 1e9

let timed f =
  let t = now () in
  let v = f () in
  (v, seconds (Int64.sub (now ()) t))

(* Words allocated by the calling domain so far. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- outcome accounting ---- *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []
let expect cond msg = if not cond then problems := msg :: !problems

(* One operation with its checks: an exception or any failed [expect]
   counts it as failed.  Its spans share the operation's number. *)
let attempt what f =
  problems := [];
  (try Trace.operation !attempted f with e -> expect false (Printexc.to_string e));
  incr attempted;
  if !problems <> [] then begin
    incr failed;
    List.iter (Printf.eprintf "perfbench: %s: %s\n%!" what) (List.rev !problems)
  end

let spell ps = List.map C.Pattern.to_string ps

let check_schedule ~allowed graph schedule =
  expect
    (C.Schedule.validate ~allowed ~capacity:options.C.Pipeline.capacity graph
       schedule
    = [])
    "schedule fails Schedule.validate"

let same_schedule graph a b =
  C.Schedule.cycles a = C.Schedule.cycles b
  && List.for_all
       (fun n -> C.Schedule.cycle_of a n = C.Schedule.cycle_of b n)
       (C.Dfg.nodes graph)

(* ---- compile: Pipeline.run, or map_program for program-backed graphs ---- *)

type compiled = { pipeline : C.Pipeline.t; mapped : C.Pipeline.mapped option }

let compile ?pool (g : Inputs.graph) =
  match g.program with
  | Some p -> (
      match C.Pipeline.map_program ?pool ~options p with
      | Ok m -> { pipeline = m.C.Pipeline.pipeline; mapped = Some m }
      | Error e -> failwith ("map_program: " ^ e))
  | None -> { pipeline = C.Pipeline.run ?pool ~options g.dfg; mapped = None }

let verify (g : Inputs.graph) m =
  match Trace.span "montium.verify" (fun () -> C.Pipeline.verify m ~env:g.env) with
  | Ok () -> ()
  | Error e -> expect false ("Pipeline.verify: " ^ e)

let check_compiled g c =
  let t = c.pipeline in
  check_schedule ~allowed:t.C.Pipeline.patterns t.C.Pipeline.graph
    t.C.Pipeline.schedule;
  expect (t.C.Pipeline.cycles = C.Schedule.cycles t.C.Pipeline.schedule)
    "pipeline cycles disagree with its schedule";
  Option.iter (verify g) c.mapped

let compile_rebuilt ?pool (g : Inputs.graph) =
  Trace.span "compile" @@ fun () ->
  let graph = g.dfg in
  let ctx = Trace.span "antichain.make_ctx" (fun () -> C.Enumerate.make_ctx graph) in
  let universe = C.Universe.create () in
  let classify =
    Trace.span "antichain.classify" (fun () ->
        C.Classify.compute ?pool ?span_limit:options.C.Pipeline.span_limit
          ?budget:options.C.Pipeline.enumeration_budget
          ~capacity:options.C.Pipeline.capacity ~universe ctx)
  in
  let ev = Trace.span "scheduler.eval_make" (fun () -> C.Eval.make ~universe graph) in
  let report =
    Trace.span "select.eq8" (fun () ->
        C.Select.select_report ~params:options.C.Pipeline.selection
          ~pdef:options.C.Pipeline.pdef classify)
  in
  let patterns = report.C.Select.patterns in
  let schedule =
    Trace.span "scheduler.schedule" (fun () ->
        (C.Eval.schedule ~priority:options.C.Pipeline.priority ev ~patterns)
          .C.Eval.schedule)
  in
  let config =
    Trace.span "montium.config" (fun () ->
        C.Config_space.of_schedule ~tile:options.C.Pipeline.tile schedule)
  in
  let mapped =
    Option.map
      (fun program ->
        let tile = options.C.Pipeline.tile in
        match
          Trace.span "montium.allocate" (fun () ->
              C.Allocation.allocate ~tile program schedule)
        with
        | Error e -> failwith ("Allocation.allocate: " ^ e)
        | Ok allocation ->
            let energy =
              Trace.span "montium.energy" (fun () ->
                  C.Energy.estimate ~tile program schedule allocation)
            in
            (program, allocation, energy))
      g.program
  in
  (classify, patterns, schedule, config, mapped)

(* The rebuild must reproduce the end-to-end result exactly. *)
let check_rebuilt_compile g (reference : compiled) (classify, patterns, schedule, config, mapped) =
  let t = reference.pipeline in
  expect (spell patterns = spell t.C.Pipeline.patterns) "rebuilt selection differs";
  expect
    (same_schedule t.C.Pipeline.graph schedule t.C.Pipeline.schedule)
    "rebuilt schedule differs";
  expect
    (C.Classify.total_antichains classify = t.C.Pipeline.antichains
    && C.Classify.pattern_count classify = t.C.Pipeline.pattern_pool
    && C.Classify.truncated classify = t.C.Pipeline.truncated)
    "rebuilt classification differs";
  expect (config = t.C.Pipeline.config) "rebuilt configuration differs";
  check_schedule ~allowed:patterns g.Inputs.dfg schedule;
  match (mapped, reference.mapped) with
  | Some (program, allocation, energy), Some m ->
      expect (energy = m.C.Pipeline.energy) "rebuilt energy estimate differs";
      verify g { m with C.Pipeline.program; allocation; energy }
  | None, None -> ()
  | _ -> expect false "rebuilt mapping differs"

(* ---- certify: the Eq. 8 seed plus the exact branch-and-bound ---- *)

let certify (g : Inputs.graph) = C.Pipeline.certify ~options g.dfg

let check_certified (g : Inputs.graph) (c : C.Pipeline.certification) =
  let ex = c.C.Pipeline.exact in
  expect ex.C.Exact.proven "exact certificate not proven";
  expect (ex.C.Exact.optimal <> [] && ex.C.Exact.optimal_cycles <= c.C.Pipeline.heuristic_cycles)
    "exact optimum worse than its heuristic seed";
  let r =
    C.Eval.schedule ~priority:options.C.Pipeline.priority (C.Eval.make g.dfg)
      ~patterns:ex.C.Exact.optimal
  in
  check_schedule ~allowed:ex.C.Exact.optimal g.dfg r.C.Eval.schedule

(* Search statistics of every traced rebuild, by trace phase. *)
let exact_stats : (string, C.Exact.stats list) Hashtbl.t = Hashtbl.create 4

let certify_rebuilt (g : Inputs.graph) =
  Trace.span "certify" @@ fun () ->
  let ctx = Trace.span "antichain.make_ctx" (fun () -> C.Enumerate.make_ctx g.dfg) in
  let classify =
    Trace.span "antichain.classify" (fun () ->
        C.Classify.compute ?span_limit:options.C.Pipeline.span_limit
          ?budget:options.C.Pipeline.enumeration_budget
          ~capacity:options.C.Pipeline.capacity ctx)
  in
  let heuristic =
    Trace.span "select.eq8" (fun () ->
        C.Select.select ~params:options.C.Pipeline.selection
          ~pdef:options.C.Pipeline.pdef classify)
  in
  let exact =
    Trace.span "select.exact" (fun () ->
        C.Exact.search ~priority:options.C.Pipeline.priority ~seeds:[ heuristic ]
          ~pdef:options.C.Pipeline.pdef classify)
  in
  Trace.note exact_stats exact.C.Exact.stats;
  let ev = Trace.span "scheduler.eval_make" (fun () -> C.Eval.make g.dfg) in
  let heuristic_cycles =
    Trace.span "scheduler.cycles" (fun () ->
        C.Eval.cycles ~priority:options.C.Pipeline.priority ev
          (C.Exact.canonical_order classify heuristic))
  in
  (heuristic, heuristic_cycles, exact)

let check_rebuilt_certify (reference : C.Pipeline.certification) (heuristic, heuristic_cycles, exact) =
  let r = reference.C.Pipeline.exact in
  expect
    (spell heuristic = spell reference.C.Pipeline.heuristic
    && heuristic_cycles = reference.C.Pipeline.heuristic_cycles)
    "rebuilt heuristic seed differs";
  expect
    (spell exact.C.Exact.optimal = spell r.C.Exact.optimal
    && exact.C.Exact.optimal_cycles = r.C.Exact.optimal_cycles
    && exact.C.Exact.proven = r.C.Exact.proven
    && exact.C.Exact.stats = r.C.Exact.stats)
    "rebuilt exact search differs"

(* ---- serve: one request line through the warm session ---- *)

(* A response's cycles ([max_int] for null) and patterns; fails the
   operation unless it is ["ok":true]. *)
let read_response resp =
  match Json.parse resp with
  | Error e -> expect false ("unparseable response: " ^ e); None
  | Ok j -> (
      match Json.member "ok" j with
      | Some (Json.Bool true) ->
          let cycles =
            match Json.member "cycles" j with
            | Some (Json.Num c) -> int_of_float c
            | _ -> max_int
          in
          let patterns =
            match Json.member "patterns" j with
            | Some (Json.Arr ps) ->
                List.filter_map (function Json.Str s -> Some s | _ -> None) ps
            | _ -> []
          in
          Some (cycles, patterns)
      | _ -> expect false ("response not ok: " ^ resp); None)

let session_for stream =
  let sess = Session.create () in
  List.iter
    (fun (r : Inputs.request) ->
      attempt r.kind (fun () ->
          ignore (read_response (Server.handle_line sess r.line))))
    stream;
  sess

(* What [Server] derives from a decoded request, for the fields the
   benchmark's stream sets.  Its own mapping is private, so it is restated
   here; the rebuild check catches drift. *)
let options_of_request (r : P.request) =
  let d = options in
  let budget =
    match r.P.command with
    | P.Pipeline | P.Certify -> d.C.Pipeline.enumeration_budget
    | _ -> None
  in
  {
    d with
    C.Pipeline.pdef = Option.value r.P.pdef ~default:d.C.Pipeline.pdef;
    enumeration_budget = budget;
    priority =
      (match r.P.priority with
      | Some "f1" -> C.Multi_pattern.F1
      | Some "f2" -> C.Multi_pattern.F2
      | _ -> d.C.Pipeline.priority);
    strategy =
      (match Option.map C.Auto.strategy_of_string r.P.strategy with
      | Some (Ok s) -> s
      | _ -> d.C.Pipeline.strategy);
  }

let serve_rebuilt sess line =
  Trace.span "serve.request" @@ fun () ->
  Session.note_request sess;
  let r =
    match Trace.span "serve.decode" (fun () -> P.request_of_line line) with
    | Ok r -> r
    | Error e -> failwith e.P.message
  in
  let source = Option.get r.P.source in
  let resolve = match source with P.Builtin _ -> "serve.resolve" | _ -> "dfg.parse" in
  let g =
    match Trace.span resolve (fun () -> Server.resolve_source source) with
    | Ok g -> g
    | Error m -> failwith m
  in
  let options = options_of_request r in
  let intern () = Trace.span "serve.intern" (fun () -> fst (Session.intern sess g)) in
  match r.P.command with
  | P.Select ->
      let e = intern () in
      Trace.span "serve.op.select" (fun () ->
          match options.C.Pipeline.strategy with
          | C.Auto.Paper ->
              let classify, _ =
                Session.classification sess e ~capacity:options.C.Pipeline.capacity
                  ~span_limit:options.C.Pipeline.span_limit
                  ~budget:options.C.Pipeline.enumeration_budget
              in
              let report =
                Trace.span "select.eq8" (fun () ->
                    C.Select.select_report ~params:options.C.Pipeline.selection
                      ~pdef:options.C.Pipeline.pdef classify)
              in
              let patterns = report.C.Select.patterns in
              let cycles =
                Trace.span "scheduler.cycles" (fun () ->
                    try Session.set_cycles sess e ~options patterns
                    with C.Eval.Unschedulable _ -> max_int)
              in
              (patterns, cycles, None)
          | C.Auto.Auto rules ->
              let o, _ =
                Trace.span "select.auto" (fun () ->
                    Session.auto_select sess e ~options ~rules)
              in
              (o.C.Auto.patterns, o.C.Auto.cycles, None))
  | P.Schedule ->
      let e = intern () in
      Trace.span "serve.op.schedule" (fun () ->
          let patterns, res, _ = Session.schedule sess e ~options ~patterns:[] () in
          let s = res.C.Eval.schedule in
          (patterns, C.Schedule.cycles s, Some (Session.graph e, s)))
  | P.Pipeline ->
      Trace.span "serve.op.pipeline" (fun () ->
          let t, _ = Session.pipeline sess g ~options in
          ( t.C.Pipeline.patterns,
            t.C.Pipeline.cycles,
            Some (t.C.Pipeline.graph, t.C.Pipeline.schedule) ))
  | P.Edit ->
      Trace.span "serve.op.edit" (fun () ->
          let e, patterns, _, res, _ =
            Session.edit sess g ~options ~edits:r.P.edits
          in
          let s = res.C.Eval.schedule in
          (patterns, C.Schedule.cycles s, Some (Session.graph e, s)))
  | _ -> failwith "command outside the benchmark stream"

(* handle_line time minus the paired rebuild's, per traced request. *)
let frames : (string, float list) Hashtbl.t = Hashtbl.create 4

let check_rebuilt_serve ~reference (patterns, cycles, schedule) =
  (match read_response reference with
  | Some (c, ps) ->
      expect (c = cycles && ps = spell patterns)
        "rebuilt request differs from handle_line"
  | None -> ());
  Option.iter
    (fun (graph, s) -> check_schedule ~allowed:patterns graph s)
    schedule
