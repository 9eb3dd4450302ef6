module C = Core
module Json = Mps_util.Json
module P = Mps_serve.Protocol
module Server = Mps_serve.Server
module Session = Mps_serve.Session
module Obs = C.Obs

(* ---- request options -> pipeline options ---- *)

(* Negative span/budget on the wire mean unlimited; omitted fields take
   the same defaults the one-shot subcommands use — which includes the
   per-command enumeration-budget convention: the phase commands
   (select/schedule/portfolio) classify unbudgeted, the end-to-end ones
   (pipeline/certify) under the default budget. *)
let options_of_request (r : P.request) =
  let d = C.Pipeline.default_options in
  let default_budget =
    match r.P.command with
    | P.Pipeline | P.Certify -> d.C.Pipeline.enumeration_budget
    | _ -> None
  in
  {
    d with
    C.Pipeline.capacity = Option.value r.P.capacity ~default:d.C.Pipeline.capacity;
    pdef = Option.value r.P.pdef ~default:d.C.Pipeline.pdef;
    span_limit =
      (match r.P.span with
      | Some s when s < 0 -> None
      | Some s -> Some s
      | None -> d.C.Pipeline.span_limit);
    enumeration_budget =
      (match r.P.budget with
      | Some b when b < 0 -> None
      | Some b -> Some b
      | None -> default_budget);
    priority =
      (match r.P.priority with
      | Some "f1" -> C.Multi_pattern.F1
      | Some "f2" -> C.Multi_pattern.F2
      | _ -> d.C.Pipeline.priority);
    strategy =
      (* The codec already rejected anything but "eq8"/"auto", so a parse
         failure here is unreachable; fall back to the default strategy. *)
      (match r.P.strategy with
      | None -> d.C.Pipeline.strategy
      | Some s -> (
          match C.Auto.strategy_of_string s with
          | Ok st -> st
          | Error _ -> d.C.Pipeline.strategy));
    cluster = r.P.cluster;
  }

(* ---- response building ---- *)

let num n = Json.Num (float_of_int n)
let cycles_json n = if n = max_int then Json.Null else num n
let pattern_json p = Json.Str (C.Pattern.to_string p)
let patterns_json ps = Json.Arr (List.map pattern_json ps)

let schedule_json g s =
  let n = C.Schedule.cycles s in
  let rows =
    List.init n (fun c ->
        Json.Arr
          (List.map
             (fun i -> Json.Str (C.Dfg.name g i))
             (C.Schedule.nodes_at s c)))
  in
  let row_patterns =
    List.init n (fun c -> pattern_json (C.Schedule.pattern_at s c))
  in
  [
    ("cycles", num n);
    ("rows", Json.Arr rows);
    ("row_patterns", Json.Arr row_patterns);
  ]

let steps_json (report : C.Select.report) =
  Json.Arr
    (List.map
       (fun (st : C.Select.step) ->
         Json.Obj
           [
             ("pattern", pattern_json st.C.Select.chosen);
             ("priority", Json.Num st.C.Select.priority);
             ("fallback", Json.Bool st.C.Select.fallback);
           ])
       report.C.Select.steps)

(* The auto-selector's decision evidence: which backend, which rule fired
   (index + its fit provenance), and the feature vector it read. *)
let auto_json (o : C.Auto.outcome) =
  ( "auto",
    Json.Obj
      [
        ("backend", Json.Str o.C.Auto.backend);
        ("rule", num o.C.Auto.rule_index);
        ("provenance", Json.Str o.C.Auto.rule.C.Auto.provenance);
        ("features", C.Features.to_json o.C.Auto.features);
      ] )

let certificate_json (ct : C.Exact.certificate) =
  let s = ct.C.Exact.stats in
  [
    ( "exact",
      Json.Obj
        [
          ("patterns", patterns_json ct.C.Exact.optimal);
          ("cycles", cycles_json ct.C.Exact.optimal_cycles);
          ("proven", Json.Bool ct.C.Exact.proven);
        ] );
    ( "search",
      Json.Obj
        [
          ("visited", num s.C.Exact.nodes_visited);
          ("evaluated", num s.C.Exact.evaluated);
          ( "pruned",
            Json.Obj
              [
                ("span", num s.C.Exact.pruned_span);
                ("color", num s.C.Exact.pruned_color);
                ("ban", num s.C.Exact.pruned_ban);
                ("dominance", num s.C.Exact.pruned_dominance);
              ] );
          ("new_bans", num (List.length ct.C.Exact.bans));
        ] );
  ]

(* ---- execution ---- *)

type prepared = (P.request * C.Dfg.t option, P.error) result

let prepare line : prepared =
  match P.request_of_line line with
  | Error _ as e -> e
  | Ok r -> (
      match r.P.source with
      | None -> Ok (r, None)
      | Some s -> (
          match Server.resolve_source s with
          | Ok g -> Ok (r, Some g)
          | Error m -> Error { P.err_id = r.P.id; message = m }))

let describe_exn = function
  | C.Eval.Unschedulable colors ->
      "patterns cannot cover colors: "
      ^ String.concat ", " (List.map C.Color.to_string colors)
  | C.Dfg.Cycle names ->
      "edit closes a cycle: " ^ String.concat " -> " names
  | Invalid_argument m | Failure m -> m
  | exn -> Printexc.to_string exn

(* The command body: list of response fields plus the warm bit. *)
let run_command sess (r : P.request) g =
  let options = options_of_request r in
  let entry () =
    match g with
    | Some g -> fst (Session.intern sess g)
    | None -> assert false (* the protocol guarantees a graph *)
  in
  match r.P.command with
  | P.Stats -> assert false (* handled by [execute] *)
  | P.Select -> (
      let e = entry () in
      match options.C.Pipeline.strategy with
      | C.Auto.Paper ->
          let report, warm = Session.select_report sess e ~options in
          let cycles =
            match
              Session.set_cycles sess e ~options report.C.Select.patterns
            with
            | c -> c
            | exception C.Eval.Unschedulable _ -> max_int
          in
          ( [
              ("patterns", patterns_json report.C.Select.patterns);
              ("steps", steps_json report);
              ("cycles", cycles_json cycles);
            ],
            warm )
      | C.Auto.Auto rules ->
          let o, warm = Session.auto_select sess e ~options ~rules in
          ( [
              ("patterns", patterns_json o.C.Auto.patterns);
              ("cycles", cycles_json o.C.Auto.cycles);
              auto_json o;
            ],
            warm ))
  | P.Schedule ->
      let e = entry () in
      let pats =
        List.map (C.Pattern.of_string ~capacity:options.C.Pipeline.capacity)
          r.P.patterns
      in
      let pats, res, warm =
        Session.schedule sess e ~options ~patterns:pats ()
      in
      ( ("patterns", patterns_json pats)
        :: schedule_json (Session.graph e) res.C.Eval.schedule,
        warm )
  | P.Pipeline ->
      let t, warm = Session.pipeline sess (Option.get g) ~options in
      ( (match t.C.Pipeline.auto with
        | Some o -> [ auto_json o ]
        | None -> [])
        @ [
          ("patterns", patterns_json t.C.Pipeline.patterns);
          ("pattern_pool", num t.C.Pipeline.pattern_pool);
          ("antichains", num t.C.Pipeline.antichains);
          ("truncated", Json.Bool t.C.Pipeline.truncated);
          ( "config",
            Json.Obj
              [
                ( "table_size",
                  num t.C.Pipeline.config.C.Config_space.table_size );
                ("fits", Json.Bool t.C.Pipeline.config.C.Config_space.fits);
              ] );
        ]
        @ schedule_json t.C.Pipeline.graph t.C.Pipeline.schedule,
        warm )
  | P.Certify ->
      let max_nodes = r.P.max_nodes in
      let cert, warm =
        Session.certify sess (Option.get g) ~options ?max_nodes ()
      in
      ( [
          ( "heuristic",
            Json.Obj
              [
                ("patterns", patterns_json cert.C.Pipeline.heuristic);
                ("cycles", cycles_json cert.C.Pipeline.heuristic_cycles);
              ] );
          ("gap_percent", Json.Num cert.C.Pipeline.gap_percent);
        ]
        @ certificate_json cert.C.Pipeline.exact,
        warm )
  | P.Edit ->
      Obs.count "serve.edit" 1;
      let e', pats, patched, res, warm =
        Session.edit sess (Option.get g) ~options ~edits:r.P.edits
      in
      let g' = Session.graph e' in
      ( [
          ("fingerprint", Json.Str (Session.fingerprint e'));
          ("patterns", patterns_json pats);
          ("patched", Json.Bool patched);
          ("dfg", Json.Str (C.Dfg_parse.to_string g'));
        ]
        @ schedule_json g' res.C.Eval.schedule,
        warm )
  | P.Portfolio ->
      let e = entry () in
      let o, warm = Session.portfolio sess e ~options in
      ( [
          ("winner", Json.Str o.C.Portfolio.best.C.Portfolio.strategy);
          ("cycles", cycles_json o.C.Portfolio.best.C.Portfolio.cycles);
          ( "entries",
            Json.Arr
              (List.map
                 (fun (en : C.Portfolio.entry) ->
                   Json.Obj
                     [
                       ("strategy", Json.Str en.C.Portfolio.strategy);
                       ("patterns", patterns_json en.C.Portfolio.patterns);
                       ("cycles", cycles_json en.C.Portfolio.cycles);
                     ])
                 o.C.Portfolio.all) );
        ],
        warm )

let ok_response ~id ~cmd fields =
  Json.Obj
    ((match id with Some id -> [ ("id", id) ] | None -> [])
    @ [ ("ok", Json.Bool true); ("cmd", Json.Str cmd) ]
    @ fields)

let cache_stats_json ~request:(dh, dm) ~session:(sh, sm) =
  ( "stats",
    Json.Obj
      [
        ( "eval_cache",
          Json.Obj
            [
              ("hits", num dh);
              ("misses", num dm);
              ("session_hits", num sh);
              ("session_misses", num sm);
            ] );
      ] )

let execute sess (p : prepared) =
  Obs.span "serve.request" @@ fun () ->
  Session.note_request sess;
  Obs.count "serve.requests" 1;
  match p with
  | Error e ->
      Obs.count "serve.errors" 1;
      P.error_response ~id:e.P.err_id e.P.message
  | Ok (r, _) when r.P.command = P.Stats ->
      let sh, sm = Session.session_cache_stats sess in
      ok_response ~id:r.P.id ~cmd:"stats"
        [
          ("requests", num (Session.request_count sess));
          ("graphs", num (Session.graph_count sess));
          ( "eval_cache",
            Json.Obj [ ("hits", num sh); ("misses", num sm) ] );
          ("classifications", num (Session.classification_count sess));
        ]
  | Ok (r, g) -> (
      let before = Session.session_cache_stats sess in
      match run_command sess r g with
      | fields, warm ->
          Obs.count (if warm then "serve.warm" else "serve.cold") 1;
          let sh, sm = Session.session_cache_stats sess in
          let request = (sh - fst before, sm - snd before) in
          ok_response ~id:r.P.id ~cmd:(P.command_to_string r.P.command)
            (fields
            @ [
                ("warm", Json.Bool warm);
                cache_stats_json ~request ~session:(sh, sm);
              ])
      | exception exn ->
          Obs.count "serve.errors" 1;
          P.error_response ~id:r.P.id (describe_exn exn))

let handle_line sess line = Json.to_line (execute sess (prepare line))

