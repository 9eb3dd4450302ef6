(* Tests for the scheduling service: the protocol codec round-trips, serve
   responses agree with the direct library calls they wrap, warm requests
   return the same results as cold ones (with the exact backend doing zero
   re-evaluation), the response stream is identical for any pool size, a
   malformed request never takes the session down, warm requests share
   what the process and session already hold (one value per builtin,
   interning by identity, beam costed on the family's context), each
   request is answered before the next is read, and the Unix-socket
   transport carries the same stream, streams of any length, and outlives
   a client that leaves early. *)

module Json = Mps_util.Json
module Protocol = Mps_serve.Protocol
module Session = Mps_serve.Session
module Server = Mps_serve.Server
module Pool = Mps_exec.Pool
module Pipeline = Core.Pipeline
module Select = Core.Select
module Pattern = Core.Pattern
module Schedule = Core.Schedule
module Random_dag = Core.Random_dag

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(1 -- 1000)

let random_graph ~seed =
  let params =
    {
      Random_dag.default_params with
      Random_dag.layers = 4 + (seed mod 3);
      width = 3 + (seed mod 3);
    }
  in
  Random_dag.generate ~params ~seed ()

let random_dfg_text ~seed = Core.Dfg_parse.to_string (random_graph ~seed)

(* --- protocol round-trip ------------------------------------------------ *)

let edit_gen =
  let open QCheck2.Gen in
  let name = oneofl [ "a1"; "b2"; "x9" ] in
  oneof
    [
      map2
        (fun node color -> Protocol.Add_node { node; color })
        name
        (oneofl [ "a"; "b"; "c" ]);
      map (fun n -> Protocol.Remove_node n) name;
      map2 (fun s d -> Protocol.Add_edge (s, d)) name name;
      map2 (fun s d -> Protocol.Remove_edge (s, d)) name name;
    ]

let request_gen =
  let open QCheck2.Gen in
  let command =
    oneofl
      Protocol.[ Select; Schedule; Pipeline; Certify; Portfolio; Edit; Stats ]
  in
  let source cmd =
    match cmd with
    | Protocol.Stats -> return None
    | _ ->
        oneof
          [
            map (fun n -> Some (Protocol.Builtin n)) (oneofl [ "3dft"; "fig4" ]);
            map
              (fun s -> Some (Protocol.Dfg_text (random_dfg_text ~seed:s)))
              (1 -- 50);
            map (fun s -> Some (Protocol.Dot_text ("digraph " ^ s))) (oneofl [ "g{}"; "x{a->b}" ]);
          ]
  in
  let opt g = oneof [ return None; map Option.some g ] in
  command >>= fun command ->
  source command >>= fun source ->
  opt (1 -- 6) >>= fun capacity ->
  opt (-1 -- 3) >>= fun span ->
  opt (1 -- 5) >>= fun pdef ->
  opt (oneofl [ "f1"; "f2" ]) >>= fun priority ->
  bool >>= fun cluster ->
  opt (oneofl [ -1; 1000; 5_000_000 ]) >>= fun budget ->
  opt (oneofl [ 100; 1_000_000 ]) >>= fun max_nodes ->
  list_size (0 -- 3) (oneofl [ "aabcc"; "abc"; "aa" ]) >>= fun patterns ->
  (* The codec requires a non-empty edits array exactly for [edit]. *)
  (match command with
  | Protocol.Edit -> list_size (1 -- 3) edit_gen
  | _ -> return [])
  >>= fun edits ->
  opt (map (fun n -> Json.Num (float_of_int n)) (0 -- 99)) >>= fun id ->
  return
    (Protocol.make ?id ?source ?capacity ?span ?pdef ?priority ~cluster
       ?budget ?max_nodes ~patterns ~edits command)

let request_roundtrip r =
  match Protocol.request_of_line (Protocol.request_to_line r) with
  | Ok r' -> r' = r
  | Error e -> QCheck2.Test.fail_reportf "rejected own encoding: %s" e.Protocol.message

(* Every response the server produces must be one line that parses back to
   the same JSON tree — to_line/parse as inverses on real traffic. *)
let response_line_roundtrip seed =
  let sess = Session.create () in
  let lines =
    [
      Printf.sprintf "{\"id\":%d,\"cmd\":\"select\",\"graph\":\"fig4\"}" seed;
      Printf.sprintf "{\"cmd\":\"schedule\",\"dfg\":%s}"
        (Json.to_line (Json.Str (random_dfg_text ~seed)));
      "{\"cmd\":\"stats\"}";
      "not json at all";
    ]
  in
  List.for_all
    (fun line ->
      let resp = Server.handle_line sess line in
      String.index_opt resp '\n' = None
      &&
      match Json.parse resp with
      | Ok j -> Json.to_line j = resp
      | Error m -> QCheck2.Test.fail_reportf "unparseable response %s: %s" resp m)
    lines

(* --- serve = direct library calls --------------------------------------- *)

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: response lacks %S" what k

let as_int = function
  | Json.Num f -> int_of_float f
  | Json.Null -> max_int
  | _ -> Alcotest.fail "expected a number"

let string_list = function
  | Json.Arr items ->
      List.map (function Json.Str s -> s | _ -> Alcotest.fail "expected string") items
  | _ -> Alcotest.fail "expected an array"

let parse_ok what resp =
  match Json.parse resp with
  | Ok j ->
      (match Json.member "ok" j with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.failf "%s: not ok: %s" what resp);
      j
  | Error m -> Alcotest.failf "%s: bad response JSON: %s" what m

let serve_matches_pipeline seed =
  let text = random_dfg_text ~seed in
  let g = Core.Dfg_parse.of_string text in
  let sess = Session.create () in
  let line =
    Json.to_line
      (Json.Obj [ ("cmd", Json.Str "pipeline"); ("dfg", Json.Str text) ])
  in
  let resp = parse_ok "pipeline" (Server.handle_line sess line) in
  let direct = Pipeline.run g in
  string_list (member_exn "pipeline" "patterns" resp)
  = List.map Pattern.to_string direct.Pipeline.patterns
  && as_int (member_exn "pipeline" "cycles" resp) = direct.Pipeline.cycles
  && as_int (member_exn "pipeline" "antichains" resp)
     = direct.Pipeline.antichains

let serve_matches_select seed =
  let text = random_dfg_text ~seed in
  let g = Core.Dfg_parse.of_string text in
  let sess = Session.create () in
  let line =
    Json.to_line
      (Json.Obj [ ("cmd", Json.Str "select"); ("dfg", Json.Str text) ])
  in
  let resp = parse_ok "select" (Server.handle_line sess line) in
  let direct =
    Select.select ~pdef:4
      (Core.Classify.compute ~span_limit:1 ~capacity:5
         (Core.Enumerate.make_ctx g))
  in
  string_list (member_exn "select" "patterns" resp)
  = List.map Pattern.to_string direct

(* Everything that legitimately differs between a cold and a warm answer:
   the warm bit, the cache stats, and (for certify) the search accounting
   the ban reuse changes.  The scheduling *results* must be identical. *)
let strip_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter
           (fun (k, _) -> not (List.mem k [ "warm"; "stats"; "search" ]))
           fields)
  | j -> j

(* --- online edits -------------------------------------------------------- *)

let as_bool what = function
  | Json.Bool b -> b
  | _ -> Alcotest.failf "%s: expected a boolean" what

(* An [edit] answer must describe exactly the graph [Session.apply_edits]
   builds, schedule it completely, and never re-classify: the session's
   cold-classification count stays where the base request left it, and
   repeating the edit gives an identical answer. *)
let serve_edit_matches seed =
  let g = random_graph ~seed in
  let text = Core.Dfg_parse.to_string g in
  let sess = Session.create () in
  let select_line =
    Json.to_line
      (Json.Obj [ ("cmd", Json.Str "select"); ("dfg", Json.Str text) ])
  in
  ignore (parse_ok "edit warm-up" (Server.handle_line sess select_line));
  let n0 = Session.classification_count sess in
  let nodes = Core.Dfg.nodes g in
  let anchor = Core.Dfg.name g (List.hd nodes) in
  let color =
    String.make 1 (Core.Color.to_char (Core.Dfg.color g (List.hd nodes)))
  in
  let edits =
    [
      Protocol.Add_node { node = "zz9"; color };
      Protocol.Add_edge (anchor, "zz9");
    ]
  in
  let line =
    Protocol.request_to_line
      (Protocol.make ~source:(Protocol.Dfg_text text) ~edits Protocol.Edit)
  in
  let resp = parse_ok "edit" (Server.handle_line sess line) in
  let g' = Session.apply_edits g edits in
  let expected_text = Core.Dfg_parse.to_string g' in
  (match member_exn "edit" "dfg" resp with
  | Json.Str s ->
      if s <> expected_text then
        QCheck2.Test.fail_reportf "edited dfg mismatch:\n%s\nvs\n%s" s
          expected_text
  | _ -> Alcotest.fail "edit: \"dfg\" must be a string");
  let scheduled =
    match member_exn "edit" "rows" resp with
    | Json.Arr rows ->
        List.fold_left
          (fun acc row ->
            match row with
            | Json.Arr ns -> acc + List.length ns
            | _ -> Alcotest.fail "edit: schedule row must be an array")
          0 rows
    | _ -> Alcotest.fail "edit: \"rows\" must be an array"
  in
  let repeat = parse_ok "edit repeat" (Server.handle_line sess line) in
  scheduled = Core.Dfg.node_count g'
  && as_bool "warm" (member_exn "edit" "warm" resp)
  && Session.classification_count sess = n0
  && strip_volatile repeat = strip_volatile resp

(* --- warm = cold --------------------------------------------------------- *)

let warm_equals_cold seed =
  let text = random_dfg_text ~seed in
  List.for_all
    (fun cmd ->
      (* Fresh session per command: pipeline and certify share a
         classification family, so on one session the second command's
         first request would already be warm. *)
      let sess = Session.create () in
      let line =
        Json.to_line (Json.Obj [ ("cmd", Json.Str cmd); ("dfg", Json.Str text) ])
      in
      let cold = parse_ok (cmd ^ " cold") (Server.handle_line sess line) in
      let warm = parse_ok (cmd ^ " warm") (Server.handle_line sess line) in
      strip_volatile cold = strip_volatile warm
      && Json.member "warm" cold = Some (Json.Bool false)
      && Json.member "warm" warm = Some (Json.Bool true))
    [ "select"; "pipeline"; "certify" ]

(* A warm re-certification of an unchanged family must re-evaluate nothing:
   every completion is already in the persisted ban list, and the reported
   optimum is identical. *)
let warm_certify_evaluates_nothing seed =
  let text = random_dfg_text ~seed in
  let sess = Session.create () in
  let line =
    Json.to_line
      (Json.Obj [ ("cmd", Json.Str "certify"); ("dfg", Json.Str text) ])
  in
  let cold = parse_ok "certify cold" (Server.handle_line sess line) in
  let warm = parse_ok "certify warm" (Server.handle_line sess line) in
  let search j = member_exn "certify" "search" j in
  let exact j = member_exn "certify" "exact" j in
  exact cold = exact warm
  && as_int (member_exn "certify" "evaluated" (search warm)) = 0
  && as_int (member_exn "certify" "new_bans" (search warm)) = 0

(* The same reuse at the session API level, against a cold Pipeline.certify. *)
let session_certify_matches_cold seed =
  let g = random_graph ~seed in
  let sess = Session.create () in
  let options = Pipeline.default_options in
  let cold = Pipeline.certify g in
  let first, _ = Session.certify sess g ~options () in
  let second, _ = Session.certify sess g ~options () in
  first.Pipeline.exact.Core.Exact.optimal
  = cold.Pipeline.exact.Core.Exact.optimal
  && first.Pipeline.exact.Core.Exact.optimal_cycles
     = cold.Pipeline.exact.Core.Exact.optimal_cycles
  && second.Pipeline.exact.Core.Exact.optimal
     = cold.Pipeline.exact.Core.Exact.optimal
  && second.Pipeline.exact.Core.Exact.optimal_cycles
     = cold.Pipeline.exact.Core.Exact.optimal_cycles
  && second.Pipeline.exact.Core.Exact.stats.Core.Exact.evaluated = 0

(* --- determinism --------------------------------------------------------- *)

(* The full response stream — including error responses and every stats
   field — must be byte-identical whatever the pool size. *)
let jobs_identical seed =
  let text = random_dfg_text ~seed in
  let lines =
    [
      "{\"id\":1,\"cmd\":\"select\",\"graph\":\"3dft\"}";
      Json.to_line
        (Json.Obj
           [ ("id", Json.Num 2.); ("cmd", Json.Str "certify"); ("dfg", Json.Str text) ]);
      Json.to_line
        (Json.Obj
           [ ("id", Json.Num 3.); ("cmd", Json.Str "certify"); ("dfg", Json.Str text) ]);
      "{\"cmd\":\"portfolio\",\"graph\":\"fig4\"}";
      "definitely not json";
      "{\"id\":4,\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"add_node\",\"node\":\"z1\",\"color\":\"c\"},{\"op\":\"add_edge\",\"src\":\"b1\",\"dst\":\"z1\"}]}";
      "{\"id\":5,\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"add_node\",\"node\":\"z1\",\"color\":\"c\"},{\"op\":\"add_edge\",\"src\":\"b1\",\"dst\":\"z1\"}]}";
      "{\"cmd\":\"stats\"}";
    ]
  in
  let stream pool =
    let sess = Session.create ?pool () in
    String.concat "\n" (List.map (Server.handle_line sess) lines)
  in
  let seq = stream None in
  let par = Pool.with_pool ~jobs:4 (fun p -> stream (Some p)) in
  if seq <> par then
    QCheck2.Test.fail_reportf "serve responses differ between jobs 1 and 4";
  true

(* --- failure handling ----------------------------------------------------- *)

let test_malformed_keeps_session_alive () =
  let sess = Session.create () in
  let expect_error what line =
    let resp = Server.handle_line sess line in
    match Json.parse resp with
    | Ok j -> (
        match (Json.member "ok" j, Json.member "error" j) with
        | Some (Json.Bool false), Some (Json.Str _) -> ()
        | _ -> Alcotest.failf "%s: expected an error response, got %s" what resp)
    | Error m -> Alcotest.failf "%s: bad response JSON: %s" what m
  in
  expect_error "bad JSON" "{{{";
  expect_error "not an object" "[1,2]";
  expect_error "missing cmd" "{\"graph\":\"3dft\"}";
  expect_error "unknown cmd" "{\"cmd\":\"explode\",\"graph\":\"3dft\"}";
  expect_error "unknown graph" "{\"cmd\":\"select\",\"graph\":\"nope\"}";
  expect_error "missing graph" "{\"cmd\":\"select\"}";
  expect_error "two graphs" "{\"cmd\":\"select\",\"graph\":\"3dft\",\"dfg\":\"x\"}";
  expect_error "unknown option"
    "{\"cmd\":\"select\",\"graph\":\"3dft\",\"options\":{\"capaciti\":4}}";
  expect_error "bad priority"
    "{\"cmd\":\"select\",\"graph\":\"3dft\",\"options\":{\"priority\":\"f3\"}}";
  expect_error "bad graph text" "{\"cmd\":\"select\",\"dfg\":\"node a qq\"}";
  expect_error "uncoverable patterns"
    "{\"cmd\":\"schedule\",\"graph\":\"3dft\",\"options\":{\"patterns\":[\"aa\"]}}";
  expect_error "oversized pattern"
    "{\"cmd\":\"schedule\",\"graph\":\"3dft\",\"options\":{\"patterns\":[\"aaaaaaaa\"]}}";
  expect_error "edit without edits" "{\"cmd\":\"edit\",\"graph\":\"3dft\"}";
  expect_error "edit with empty edits"
    "{\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[]}";
  expect_error "edits on a non-edit cmd"
    "{\"cmd\":\"select\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"remove_node\",\"node\":\"a2\"}]}";
  expect_error "unknown edit op"
    "{\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"rename\",\"node\":\"a2\"}]}";
  expect_error "unknown edit key"
    "{\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"remove_node\",\"name\":\"a2\"}]}";
  expect_error "edit names an unknown node"
    "{\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"remove_node\",\"node\":\"zzz\"}]}";
  expect_error "an id that overflows" "{\"id\":1e400,\"cmd\":\"stats\"}";
  (* After all of that, the session still answers. *)
  let resp =
    parse_ok "post-error select"
      (Server.handle_line sess "{\"cmd\":\"select\",\"graph\":\"3dft\"}")
  in
  Alcotest.(check (list string))
    "session survives and serves"
    [ "aabcc"; "aaaaa"; "aaacc"; "aabbc" ]
    (string_list (member_exn "select" "patterns" resp))

(* The id is echoed even when the request is rejected after parsing —
   including rejections inside the edits array. *)
let test_error_echoes_id () =
  let sess = Session.create () in
  let check_id what line expected =
    let resp = Server.handle_line sess line in
    match Json.parse resp with
    | Ok j ->
        Alcotest.(check bool) (what ^ ": id echoed") true
          (Json.member "id" j = Some expected)
    | Error m -> Alcotest.failf "%s: bad response JSON: %s" what m
  in
  check_id "missing graph" "{\"id\":\"q7\",\"cmd\":\"select\"}" (Json.Str "q7");
  check_id "bad edit op"
    "{\"id\":8,\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"nope\"}]}"
    (Json.Num 8.);
  check_id "bad edit key"
    "{\"id\":9,\"cmd\":\"edit\",\"graph\":\"3dft\",\"edits\":[{\"op\":\"add_edge\",\"src\":\"b1\",\"to\":\"a2\"}]}"
    (Json.Num 9.)

let builtin name =
  match Server.resolve_source (Protocol.Builtin name) with
  | Ok g -> g
  | Error m -> Alcotest.fail m

(* Per-request cache stats are deltas; session stats are cumulative. *)
let test_cache_stats_accumulate () =
  let sess = Session.create () in
  let line = "{\"cmd\":\"select\",\"graph\":\"3dft\"}" in
  (* The same selection with the default Pdef spelled out: another memo
     key, the same family. *)
  let explicit = "{\"cmd\":\"select\",\"graph\":\"3dft\",\"options\":{\"pdef\":4}}" in
  let stats j =
    let s =
      member_exn "select" "eval_cache" (member_exn "select" "stats" j)
    in
    ( as_int (member_exn "select" "hits" s),
      as_int (member_exn "select" "misses" s),
      as_int (member_exn "select" "session_hits" s),
      as_int (member_exn "select" "session_misses" s) )
  in
  let h1, m1, sh1, sm1 = stats (parse_ok "first" (Server.handle_line sess line)) in
  let h2, m2, sh2, sm2 = stats (parse_ok "second" (Server.handle_line sess line)) in
  let h3, m3, sh3, sm3 = stats (parse_ok "explicit" (Server.handle_line sess explicit)) in
  (* First request costs the selected set once: a miss.  The repeat is
     answered from the response memo and costs nothing, so the session
     totals stand.  The explicit spelling misses the response memo and
     finds the set in the family's eval cache: a hit, added to the
     totals. *)
  Alcotest.(check (pair int int)) "cold request delta" (0, 1) (h1, m1);
  Alcotest.(check (pair int int)) "cold session totals" (0, 1) (sh1, sm1);
  Alcotest.(check (pair int int)) "repeat request delta" (0, 0) (h2, m2);
  Alcotest.(check (pair int int)) "repeat session totals" (0, 1) (sh2, sm2);
  Alcotest.(check (pair int int)) "warm request delta" (1, 0) (h3, m3);
  Alcotest.(check (pair int int)) "warm session totals" (1, 1) (sh3, sm3);
  let h, m = Session.session_cache_stats sess in
  Alcotest.(check (pair int int)) "session_cache_stats agrees" (sh3, sm3) (h, m);
  (* The session keeps its totals between operations: after each
     operation that can run a context, they equal the fold of
     [cache_stats] over the entries it touched. *)
  let sess = Session.create () in
  let g = builtin "w5dft" in
  let e, _ = Session.intern sess g in
  let touched = ref [ e ] in
  let agrees what =
    let fold =
      List.fold_left
        (fun (h, m) e ->
          let h', m' = Session.cache_stats e in
          (h + h', m + m'))
        (0, 0) !touched
    in
    Alcotest.(check (pair int int)) what fold (Session.session_cache_stats sess)
  in
  let options = Pipeline.default_options in
  let auto = { options with Pipeline.strategy = Core.Auto.Auto Core.Auto.builtin_rules } in
  agrees "fresh";
  let report, _ = Session.select_report sess e ~options in
  agrees "select_report";
  ignore (Session.set_cycles sess e ~options report.Select.patterns);
  agrees "set_cycles";
  ignore (Session.auto_select sess e ~options:auto ~rules:Core.Auto.builtin_rules);
  agrees "auto_select";
  ignore (Session.schedule sess e ~options:{ options with Pipeline.pdef = 3 } ~patterns:[] ());
  agrees "schedule, selected";
  ignore (Session.schedule sess e ~options ~patterns:report.Select.patterns ());
  agrees "schedule, given patterns";
  ignore (Session.pipeline sess g ~options:{ auto with Pipeline.pdef = 5 });
  agrees "pipeline";
  ignore (Session.portfolio sess e ~options);
  agrees "portfolio";
  ignore (Session.certify sess g ~options ());
  agrees "certify";
  let e', _, _, _, _ =
    Session.edit sess g ~options
      ~edits:[ Protocol.Add_node { node = "z"; color = "a" } ]
  in
  touched := e' :: !touched;
  agrees "edit"

(* --- sharing ------------------------------------------------------------ *)

(* A builtin is built once per process: every resolution, from any domain
   and even when two domains race on the first one, is the same value. *)
let test_builtins_shared () =
  let racers = List.init 2 (fun _ -> Domain.spawn (fun () -> builtin "huge-wide")) in
  (match List.map Domain.join racers with
  | [ a; b ] ->
      Alcotest.(check bool) "two racing domains" true (a == b);
      Alcotest.(check bool) "then this domain" true (builtin "huge-wide" == a)
  | _ -> assert false);
  let g = builtin "huge-deep" in
  Alcotest.(check bool) "second call" true (builtin "huge-deep" == g);
  Alcotest.(check bool) "spawned domain" true
    (Domain.join (Domain.spawn (fun () -> builtin "huge-deep")) == g);
  Alcotest.(check bool) "builtins table" true
    (List.assoc "huge-deep" Server.builtins () == g)

(* The value an entry was made from is found by identity; a parsed copy of
   the same canonical text is found by fingerprint and never adds an
   entry. *)
let test_intern_identity () =
  let sess = Session.create () in
  let g = builtin "huge-deep" in
  let e, known = Session.intern sess g in
  let e', known' = Session.intern sess g in
  Alcotest.(check bool) "first intern is new" false known;
  Alcotest.(check bool) "second intern is known" true known';
  Alcotest.(check bool) "same entry" true (e == e');
  let text = Core.Dfg_parse.to_string g in
  for i = 1 to 100 do
    let copy = Core.Dfg_parse.of_string text in
    let e_copy, known_copy = Session.intern sess copy in
    if copy == g || not known_copy || e_copy != e then
      Alcotest.failf "parsed copy %d did not map to the entry" i
  done;
  Alcotest.(check int) "graph_count" 1 (Session.graph_count sess);
  Alcotest.(check bool) "entry keeps its own graph" true (Session.graph e == g)

let classify g =
  let d = Pipeline.default_options in
  Core.Classify.compute ?span_limit:d.Pipeline.span_limit
    ~capacity:d.Pipeline.capacity (Core.Enumerate.make_ctx g)

(* An auto select that dispatches to beam costs its finalists on the
   family's context: the cold request misses on each of the four, and
   costing the chosen set on the family afterwards is a hit.  The select's
   repeat is answered from the response memo, and the same selection
   through a pipeline at the default budget (the select's complete
   family, a different memo key) reads the family's kept outcome, so
   neither costs anything.  All answer what a cold Auto.select does. *)
let test_auto_beam_on_family () =
  let sess = Session.create () in
  let line = "{\"cmd\":\"select\",\"graph\":\"w5dft\",\"options\":{\"strategy\":\"auto\"}}" in
  let through_pipeline =
    "{\"cmd\":\"pipeline\",\"graph\":\"w5dft\",\"options\":{\"strategy\":\"auto\"}}"
  in
  let cold = Core.Auto.select ~pdef:Pipeline.default_options.Pipeline.pdef (classify (builtin "w5dft")) in
  List.iter
    (fun (what, line, want) ->
      let j = parse_ok what (Server.handle_line sess line) in
      let stats = member_exn what "eval_cache" (member_exn what "stats" j) in
      Alcotest.(check string) (what ^ ": backend") "beam"
        (match member_exn what "backend" (member_exn what "auto" j) with
        | Json.Str b -> b
        | _ -> Alcotest.fail "backend must be a string");
      Alcotest.(check (pair int int)) (what ^ ": eval_cache") want
        (as_int (member_exn what "hits" stats), as_int (member_exn what "misses" stats));
      Alcotest.(check (list string)) (what ^ ": patterns")
        (List.map Pattern.to_string cold.Core.Auto.patterns)
        (string_list (member_exn what "patterns" j));
      Alcotest.(check int) (what ^ ": cycles") cold.Core.Auto.cycles
        (as_int (member_exn what "cycles" j)))
    [
      ("cold", line, (0, 4));
      ("repeat", line, (0, 0));
      ("warm pipeline", through_pipeline, (0, 0));
    ];
  Alcotest.(check int) "one classification" 1 (Session.classification_count sess);
  let e, _ = Session.intern sess (builtin "w5dft") in
  let before = Session.cache_stats e in
  ignore (Session.set_cycles sess e ~options:Pipeline.default_options cold.Core.Auto.patterns);
  let h, m = Session.cache_stats e in
  Alcotest.(check (pair int int)) "the chosen finalist is in the family's cache" (1, 0)
    (h - fst before, m - snd before)

let test_beam_rejects_foreign_eval () =
  let g = builtin "w5dft" in
  let cls = classify g in
  let rejects what ctx =
    Alcotest.check_raises what
      (Invalid_argument "Beam.search: eval is a context for another graph")
      (fun () -> ignore (Core.Beam.search ~eval:ctx ~pdef:4 cls))
  in
  rejects "another graph" (Core.Eval.make (builtin "3dft"));
  rejects "an equal copy" (Core.Eval.make (Core.Dfg_parse.of_string (Core.Dfg_parse.to_string g)));
  let own = Core.Beam.search ~eval:(Core.Eval.make g) ~pdef:4 cls in
  let fresh = Core.Beam.search ~pdef:4 cls in
  Alcotest.(check (list string)) "own graph: same patterns"
    (List.map Pattern.to_string fresh.Core.Beam.patterns)
    (List.map Pattern.to_string own.Core.Beam.patterns);
  Alcotest.(check int) "own graph: same cycles" fresh.Core.Beam.cycles own.Core.Beam.cycles

(* --- the response memo, canonical text and the session bound ---------- *)

let line_of fields = Json.to_line (Json.Obj fields)
let str s = Json.Str s
let opts o = ("options", Json.Obj o)
let int_json n = Json.Num (float_of_int n)

let add_z1 =
  Json.Arr
    [
      Json.Obj [ ("op", str "add_node"); ("node", str "z1"); ("color", str "c") ];
      Json.Obj [ ("op", str "add_edge"); ("src", str "b1"); ("dst", str "z1") ];
    ]

(* 3dft with sink z1 below b1, as canonical text without its edge from
   b1: an edit base of its own whose edit reaches the graph 3dft's edit
   does. *)
let z1_base_text () =
  let g = Session.apply_edits (builtin "3dft")
      [ Protocol.Add_node { node = "z1"; color = "c" }; Protocol.Add_edge ("b1", "z1") ]
  in
  String.concat "\n"
    (List.filter (fun l -> l <> "edge b1 z1")
       (String.split_on_char '\n' (Core.Dfg_parse.to_string g)))

(* 3dft's canonical text with node a2 colored b: another graph whose
   canonical text has the same length. *)
let recolored_text () =
  String.concat "\n"
    (List.map
       (fun l -> if l = "node a2 a" then "node a2 b" else l)
       (String.split_on_char '\n' (Core.Dfg_parse.to_string (builtin "3dft"))))

(* Eighteen lines that cover every command; builtin, canonical-text,
   commented-text and DOT sources of one graph; canonical text of another
   graph whose text has the same length, so two entries share a length;
   f1 and f2; Pdef 1 to 6 and 10^15; cluster on and off; and requests
   that fail. *)
let stream_pool =
  lazy
    (let canonical = Core.Dfg_parse.to_string (builtin "3dft") in
     let commented = "# 3dft, commented\n" ^ canonical in
     let dot = Core.Dot.to_dot (builtin "fig4") in
     [|
       line_of [ ("cmd", str "select"); ("graph", str "3dft") ];
       line_of
         [ ("cmd", str "select"); ("dfg", str canonical);
           opts [ ("pdef", int_json 3); ("priority", str "f2") ] ];
       line_of
         [ ("cmd", str "schedule"); ("graph", str "fig4");
           opts [ ("patterns", Json.Arr [ str "aabcc"; str "abc" ]) ] ];
       line_of
         [ ("cmd", str "schedule"); ("graph", str "3dft");
           opts [ ("patterns", Json.Arr [ str "aa" ]) ] ];
       line_of
         [ ("cmd", str "schedule"); ("dfg", str commented);
           opts [ ("pdef", int_json 5); ("priority", str "f2") ] ];
       line_of [ ("cmd", str "pipeline"); ("dfg", str canonical); opts [ ("cluster", Json.Bool true) ] ];
       line_of [ ("cmd", str "pipeline"); ("dfg", str canonical); opts [ ("pdef", int_json 1) ] ];
       line_of [ ("cmd", str "pipeline"); ("dot", str dot); opts [ ("strategy", str "auto") ] ];
       line_of [ ("cmd", str "portfolio"); ("graph", str "fig4"); opts [ ("pdef", int_json 2) ] ];
       line_of
         [ ("cmd", str "edit"); ("graph", str "3dft"); ("edits", add_z1);
           opts [ ("pdef", int_json 2) ] ];
       line_of
         [ ("cmd", str "edit"); ("dfg", str (z1_base_text ()));
           ("edits", Json.Arr [ Json.Obj [ ("op", str "add_edge"); ("src", str "b1"); ("dst", str "z1") ] ]);
           opts [ ("pdef", int_json 2) ] ];
       line_of [ ("cmd", str "certify"); ("graph", str "fig4"); opts [ ("pdef", int_json 1_000_000_000_000_000) ] ];
       line_of
         [ ("cmd", str "select"); ("graph", str "w5dft");
           opts [ ("strategy", str "auto"); ("pdef", int_json 6); ("priority", str "f2") ] ];
       line_of [ ("cmd", str "select"); ("graph", str "fig4"); opts [ ("pdef", int_json 1_000_000_000_000_000) ] ];
       line_of [ ("cmd", str "stats") ];
       "{\"cmd\":\"select\",\"graph\":\"nope\"}";
       "not a request";
       line_of [ ("cmd", str "select"); ("dfg", str (recolored_text ())) ];
     |])

(* What the memo may change: the eval-cache counts, and the stats fields
   it adds. *)
let strip_memo_fields j =
  match j with
  | Json.Obj fields when Json.member "cmd" j = Some (Json.Str "stats") ->
      Json.Obj
        (List.filter
           (fun (k, _) -> not (List.mem k [ "eval_cache"; "memo"; "evictions"; "texts" ]))
           fields)
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "stats", Json.Obj s -> ("stats", Json.Obj (List.remove_assoc "eval_cache" s))
             | kv -> kv)
           fields)
  | j -> j

let parse_line what resp =
  match Json.parse resp with
  | Ok j -> j
  | Error m -> QCheck2.Test.fail_reportf "%s: unparseable response %s: %s" what resp m

(* The session totals an ok response reports, and its request's delta:
   [stats] reports the totals alone. *)
let eval_counts j =
  let n k o = as_int (member_exn "eval_cache" k o) in
  match Json.member "stats" j with
  | Some st ->
      let c = member_exn "stats" "eval_cache" st in
      Some ((n "session_hits" c, n "session_misses" c), (n "hits" c, n "misses" c))
  | None -> Option.map (fun c -> ((n "hits" c, n "misses" c), (0, 0))) (Json.member "eval_cache" j)

(* Each response of a stream with frequent repeats, memoized and spliced,
   equals the memo-less reference's apart from the eval-cache counts and
   the new stats fields, and prints as Json.to_line prints its tree.  Its
   session totals are the previous response's plus its own request's
   delta, unless an error came between them (a request that fails may
   have costed sets first). *)
let stream_matches_reference ?max_graphs picks =
  let pool = Lazy.force stream_pool in
  let sess = Session.create ?max_graphs () and ref_sess = Session.create ?max_graphs () in
  let last = ref (Some (0, 0)) in
  List.iteri
    (fun i k ->
      let line = pool.(k mod Array.length pool) in
      let line =
        (* An id on every other request: the memo ignores it. *)
        if i mod 2 = 0 || line.[0] <> '{' then line
        else Printf.sprintf "{\"id\":%d,%s" i (String.sub line 1 (String.length line - 1))
      in
      let got = Server.handle_line sess line and want = Server_ref.handle_line ref_sess line in
      let j = parse_line "memo" got in
      if Json.to_line j <> got then QCheck2.Test.fail_reportf "not to_line's rendering: %s" got;
      (match (Json.member "ok" j, eval_counts j) with
      | Some (Json.Bool true), Some (((sh, sm) as totals), (dh, dm)) ->
          (match !last with
          | Some (h0, m0) when (sh, sm) <> (h0 + dh, m0 + dm) ->
              QCheck2.Test.fail_reportf
                "request %d: session totals %d/%d after %d/%d and a delta of %d/%d: %s" i sh sm
                h0 m0 dh dm got
          | _ -> ());
          last := Some totals
      | _ -> last := None);
      let a = Json.to_line (strip_memo_fields j)
      and b = Json.to_line (strip_memo_fields (parse_line "reference" want)) in
      if a <> b then
        QCheck2.Test.fail_reportf "request %d, %s\nmemo:      %s\nreference: %s" i line a b)
    picks;
  true

let picks_gen = QCheck2.Gen.(list_size (1 -- 30) (0 -- 17))

(* Splicing a rendered member run between a head and a tail is rendering
   the whole object, whichever of the three is empty. *)
let splice_matches_to_line (head, body, tail) =
  Server.splice head (Server.members body) tail
  = Json.to_line (Json.Obj (head @ body @ tail))

let object_groups_gen =
  let open QCheck2.Gen in
  let key = oneofl [ "id"; "ok"; "cmd"; "a\"b"; "\\"; "x\ny"; "" ] in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Num (float_of_int n)) (-1_000_000 -- 1_000_000);
        map (fun f -> Json.Num f) float;
        map (fun s -> Json.Str s) (string_size ~gen:char (0 -- 6));
      ]
  in
  let value =
    sized
    @@ fix (fun self size ->
           if size <= 1 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun xs -> Json.Arr xs) (list_size (0 -- 3) (self (size / 3))));
                 (1, map (fun kvs -> Json.Obj kvs) (list_size (0 -- 3) (pair key (self (size / 3)))));
               ])
  in
  let group = list_size (0 -- 4) (pair key value) in
  triple group group group

let select_line graph = line_of [ ("cmd", str "select"); ("graph", str graph) ]

let answer what resp =
  let j = parse_ok what resp in
  ( string_list (member_exn what "patterns" j),
    as_int (member_exn what "cycles" j),
    as_bool "warm" (member_exn what "warm" j) )

(* Interning past the bound evicts the least recently used graph: the
   count stays at the bound, the session totals never fall, and the
   evicted graph answers cold with the answer it gave before. *)
let test_lru_bound () =
  let sess = Session.create ~max_graphs:2 () in
  let last = ref (0, 0) and classified = ref 0 in
  let ask graph =
    let resp = Server.handle_line sess (select_line graph) in
    let (h, m) as totals = Session.session_cache_stats sess in
    if Session.graph_count sess > 2 then Alcotest.failf "%d graphs held" (Session.graph_count sess);
    if h < fst !last || m < snd !last then Alcotest.fail "session totals fell";
    if Session.classification_count sess < !classified then
      Alcotest.fail "classification count fell";
    last := totals;
    classified := Session.classification_count sess;
    answer graph resp
  in
  let first = ask "3dft" in
  ignore (ask "fig4");
  let again = ask "3dft" in
  Alcotest.(check bool) "3dft repeat is warm" true (let _, _, w = again in w);
  ignore (ask "w5dft");
  (* fig4 was used least recently, so 3dft survived. *)
  Alcotest.(check int) "one eviction" 1 (Session.eviction_count sess);
  let survivor = ask "3dft" in
  Alcotest.(check bool) "3dft survived" true (let _, _, w = survivor in w);
  ignore (ask "fig4");
  ignore (ask "adv-rainbow");
  Alcotest.(check int) "three evictions" 3 (Session.eviction_count sess);
  let p0, c0, _ = first in
  let p, c, warm = ask "3dft" in
  Alcotest.(check bool) "evicted graph answers cold" false warm;
  Alcotest.(check (list string)) "same patterns" p0 p;
  Alcotest.(check int) "same cycles" c0 c;
  Alcotest.(check int) "bounded" 2 (Session.graph_count sess)

(* A memo keeps at most its cap of keys and bodies: an answer that would
   pass it empties the memo, and one larger than the cap is not kept. *)
let test_memo_cap () =
  let sess = Session.create () in
  let e, _ = Session.intern sess (builtin "fig4") in
  let body n = { Session.body = String.make n 'x'; edited = None } in
  (* One-byte keys: three answers fill the cap to within a byte. *)
  let third = (Session.memo_cap / 3) - 1 in
  List.iter (fun k -> Session.remember e k (body third)) [ "a"; "b"; "c" ];
  Alcotest.(check bool) "three thirds fit" true (Session.recall sess e "a" <> None);
  Alcotest.(check bool) "within the cap" true (Session.memo_bytes e <= Session.memo_cap);
  Session.remember e "d" (body third);
  Alcotest.(check bool) "a fourth empties the memo" true
    (Session.recall sess e "a" = None && Session.recall sess e "d" <> None);
  Alcotest.(check int) "holding only the fourth" (1 + third) (Session.memo_bytes e);
  Session.remember e "big" (body Session.memo_cap);
  Alcotest.(check bool) "larger than the cap: not kept" true (Session.recall sess e "big" = None);
  Alcotest.(check int) "memo unchanged" (1 + third) (Session.memo_bytes e)

(* [stats] reports memo hits and misses, evictions, classifications and
   how inline texts resolved as integers, after the fields it had. *)
let test_stats_schema () =
  let sess = Session.create ~max_graphs:1 () in
  List.iter
    (fun g -> ignore (Server.handle_line sess (select_line g)))
    [ "3dft"; "3dft"; "fig4"; "fig4"; "fig4" ];
  ignore (Server.handle_line sess "{\"cmd\":\"certify\",\"graph\":\"fig4\"}");
  let j = parse_ok "stats" (Server.handle_line sess "{\"cmd\":\"stats\"}") in
  let keys = function Json.Obj kvs -> List.map fst kvs | _ -> Alcotest.fail "expected an object" in
  Alcotest.(check (list string)) "fields"
    [ "ok"; "cmd"; "requests"; "graphs"; "eval_cache"; "memo"; "evictions"; "classifications";
      "texts" ]
    (keys j);
  let memo = member_exn "stats" "memo" j in
  Alcotest.(check (list string)) "memo fields" [ "hits"; "misses" ] (keys memo);
  Alcotest.(check (pair int int)) "memo hits, misses" (3, 2)
    (as_int (member_exn "memo" "hits" memo), as_int (member_exn "memo" "misses" memo));
  Alcotest.(check int) "evictions" 1 (as_int (member_exn "stats" "evictions" j));
  (* 3dft, then fig4 after it: the certify at the default budget finds
     fig4's complete family. *)
  Alcotest.(check int) "classifications" 2 (as_int (member_exn "stats" "classifications" j));
  Alcotest.(check int) "graphs" 1 (as_int (member_exn "stats" "graphs" j));
  let texts j =
    let t = member_exn "stats" "texts" j in
    Alcotest.(check (list string)) "texts fields" [ "matched"; "parsed" ] (keys t);
    (as_int (member_exn "texts" "matched" t), as_int (member_exn "texts" "parsed" t))
  in
  Alcotest.(check (pair int int)) "builtin names are no inline texts" (0, 0) (texts j);
  (* fig4's text as the escaper spells it matches; its newlines as \u000a
     and DOT are parsed. *)
  let fig4 = Core.Dfg_parse.to_string (builtin "fig4") in
  let newlines = String.concat "\\u000a" (List.map Json.escaped (String.split_on_char '\n' fig4)) in
  List.iter
    (fun l -> ignore (Server.handle_line sess l))
    [
      line_of [ ("cmd", str "select"); ("dfg", str fig4) ];
      "{\"cmd\":\"select\",\"dfg\":\"" ^ newlines ^ "\"}";
      line_of [ ("cmd", str "select"); ("dot", str (Core.Dot.to_dot (builtin "fig4"))) ];
    ];
  Alcotest.(check (pair int int)) "matched, parsed" (1, 2)
    (texts (parse_ok "stats" (Server.handle_line sess "{\"cmd\":\"stats\"}")))

(* An edit migrates its own base's selection, even when an edit from
   another base reached the same graph first. *)
let test_edit_keyed_by_base () =
  let a =
    line_of [ ("cmd", str "edit"); ("graph", str "3dft"); ("edits", add_z1); opts [ ("pdef", int_json 2) ] ]
  in
  let b =
    line_of
      [ ("cmd", str "edit"); ("dfg", str (z1_base_text ()));
        ("edits", Json.Arr [ Json.Obj [ ("op", str "add_edge"); ("src", str "b1"); ("dst", str "z1") ] ]);
        opts [ ("pdef", int_json 2) ] ]
  in
  let run lines =
    let sess = Session.create () in
    List.map (fun l -> let p, c, _ = answer "edit" (Server.handle_line sess l) in (p, c)) lines
  in
  let fp line =
    match Json.member "fingerprint" (parse_ok "edit" (Server.handle_line (Session.create ()) line)) with
    | Some (Json.Str f) -> f
    | _ -> Alcotest.fail "edit: no fingerprint"
  in
  Alcotest.(check string) "both reach one graph" (fp a) (fp b);
  let pair = Alcotest.(pair (list string) int) in
  match (run [ b ], run [ a; b ], run [ a ], run [ b; a ]) with
  | [ b_alone ], [ a_first; b_after_a ], [ a_alone ], [ _; a_after_b ] ->
      Alcotest.check pair "B's own selection" ([ "aaccc"; "aabcc" ], 8) b_alone;
      Alcotest.check pair "B after A" b_alone b_after_a;
      Alcotest.check pair "A first" a_alone a_first;
      Alcotest.check pair "A after B" a_alone a_after_b
  | _ -> assert false

(* --- the escaped-body lookup --------------------------------------------- *)

(* Names the escaper must escape (a quote, a backslash, a carriage return,
   a backspace) and characters it leaves as they are (a slash, UTF-8). *)
let odd_text =
  "node a/1 a\nnode b\"2 b\nnode c\\3 c\nnode d\xc3\xa9 a\nnode e\r5 b\nnode f\b6 c\n\
   edge a/1 b\"2\nedge b\"2 c\\3\nedge e\r5 f\b6\n"

(* A session holding every corpus graph and the odd one; their canonical
   texts, and each as the escaper spells it. *)
let lookup_session =
  lazy
    (let sess = Session.create () in
     let graphs =
       List.map (fun (_, build) -> build ()) Server.builtins
       @ [ Core.Dfg_parse.of_string odd_text ]
     in
     let texts =
       Array.of_list (List.map (fun g -> Session.text (fst (Session.intern sess g))) graphs)
     in
     (sess, texts, Array.map Json.escaped texts))

type spelling = Escaper | Newlines | Slash

(* The escaper's spelling, or the escaper's with every newline as \u000a
   or every slash as \/: the same value, other bytes. *)
let spell spelling text =
  let buf = Buffer.create (String.length text + 64) in
  String.iter
    (fun c ->
      match (spelling, c) with
      | Newlines, '\n' -> Buffer.add_string buf "\\u000a"
      | Slash, '/' -> Buffer.add_string buf "\\/"
      | _ -> Buffer.add_string buf (Json.escaped (String.make 1 c)))
    text;
  Buffer.contents buf

type body_change =
  | Whole
  | Truncated of int
  | Flipped of int * int
  | Same_length of int  (* another text of the same length *)
  | Plus_line
  | Closed_early

(* [text] with its [p]-th letter or digit (mod their count) replaced. *)
let same_length_text text p =
  let alnum = function 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  let positions = List.filter (fun i -> alnum text.[i]) (List.init (String.length text) Fun.id) in
  let i = List.nth positions (p mod List.length positions) in
  String.mapi (fun j c -> if j <> i then c else if c = 'a' then 'b' else 'a') text

let changed_body spelling change text =
  let whole = spell spelling text in
  let n = String.length whole in
  match change with
  | Whole -> whole
  | Truncated k -> String.sub whole 0 (k mod n)
  | Closed_early -> String.sub whole 0 (n - 1)
  | Flipped (p, x) ->
      let b = Bytes.of_string whole in
      let p = p mod n in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 + (x mod 255))));
      Bytes.to_string b
  | Same_length p -> spell spelling (same_length_text text p)
  | Plus_line -> spell spelling (text ^ "node zz9 a\n")

let lookup_gen =
  let open QCheck2.Gen in
  let change =
    frequency
      [
        (3, pure Whole);
        (1, map (fun k -> Truncated k) nat);
        (1, map2 (fun p x -> Flipped (p, x)) nat nat);
        (1, map (fun p -> Same_length p) nat);
        (1, pure Plus_line);
        (1, pure Closed_early);
      ]
  in
  tup6 nat (oneofl [ Escaper; Newlines; Slash ]) change (oneofl [ ":"; " : " ]) bool bool

(* A line decodes the same with the session's lookup as without: the same
   request, or the same error and offset.  Its "dfg" value is an entry's
   own string exactly when the line spells it as the escaper does. *)
let lookup_agrees (g, spelling, change, colon, dfg_first, repeat) =
  let sess, texts, escaped = Lazy.force lookup_session in
  let g = g mod Array.length texts in
  let body = changed_body spelling change texts.(g) in
  let member = "\"dfg\"" ^ colon ^ "\"" ^ body ^ "\"" and cmd = "\"cmd\":\"select\"" in
  let line =
    "{"
    ^ (if dfg_first then member ^ "," ^ cmd else cmd ^ "," ^ member)
    ^ (if repeat then ",\"dfg\":\"" ^ escaped.(g) ^ "\"" else "")
    ^ "}"
  in
  let show = function
    | Ok _ -> "a request"
    | Error e -> "error " ^ e.Protocol.message
  in
  let got = Protocol.request_of_line ~known:(Session.lookup sess) line
  and want = Protocol.request_of_line line in
  if got <> want then
    QCheck2.Test.fail_reportf "graph %d: %s with the lookup, %s without: %s" g (show got)
      (show want) (String.sub line 0 (min 120 (String.length line)));
  (match got with
  | Ok { Protocol.source = Some (Protocol.Dfg_text v); _ } ->
      let own = Array.exists (fun t -> t == v) texts
      and spelled = Array.exists (String.equal body) escaped in
      if own <> spelled then
        QCheck2.Test.fail_reportf "graph %d: an entry's own text %b, spelled as escaped %b" g own
          spelled
  | _ -> ());
  true

(* Each live entry's text as the escaper spells it is taken as the
   entry's own string.  A lookup is not a use, and an evicted entry's text
   is decoded again. *)
let test_lookup_live_entries () =
  let value sess text =
    match
      Protocol.request_of_line ~known:(Session.lookup sess)
        (line_of [ ("cmd", str "select"); ("dfg", str text) ])
    with
    | Ok { Protocol.source = Some (Protocol.Dfg_text v); _ } -> v
    | _ -> Alcotest.fail "expected a dfg request"
  in
  let sess, texts, _ = Lazy.force lookup_session in
  Array.iteri (fun i t -> if value sess t != t then Alcotest.failf "text %d was decoded" i) texts;
  let sess = Session.create ~max_graphs:2 () in
  let text name =
    Session.note_request sess;
    Session.text (fst (Session.intern sess (builtin name)))
  in
  let a = text "3dft" in
  let b = text "fig4" in
  Session.note_request sess;
  Alcotest.(check bool) "3dft matches" true (value sess a == a);
  ignore (text "w5dft");
  Alcotest.(check bool) "3dft, looked up but used least recently, went" true
    (let v = value sess a in
     v != a && String.equal v a);
  Alcotest.(check bool) "fig4 stays" true (value sess b == b)

(* --- shared families and the selection memo ----------------------------- *)

type budget_pick = Omitted | Unlimited | Below | Equal | Above

(* Interleaved select, pipeline and certify requests on one random graph,
   each with a budget below, at or above the graph's antichain count, or
   none, at Pdef 3 or 4. *)
let shared_gen =
  QCheck2.Gen.(
    pair (1 -- 1000)
      (list_size (1 -- 8)
         (triple
            (oneofl [ "select"; "pipeline"; "certify" ])
            (oneofl [ Omitted; Unlimited; Below; Equal; Above ])
            (3 -- 4))))

(* Each answer on one session equals a fresh session's, apart from the
   warm bit, the cache counts and the ban-list accounting; a request is
   warm exactly when an earlier one needed the same classification, and
   the session classifies once per distinct classification: the complete
   one, which every budget at or above the count and no budget at all
   share, and one per budget below the count. *)
let shared_families_match_fresh (seed, requests) =
  let g = random_graph ~seed in
  let text = Core.Dfg_parse.to_string g in
  let count = Core.Classify.total_antichains (classify g) in
  let default = Pipeline.default_options.Pipeline.enumeration_budget in
  let sess = Session.create () in
  let seen = ref [] in
  List.iteri
    (fun i (cmd, pick, pdef) ->
      let budget =
        match pick with
        | Omitted -> None
        | Unlimited -> Some (-1)
        | Below -> Some (count / 2)
        | Equal -> Some count
        | Above -> Some (count + 1)
      in
      let effective =
        match (budget, cmd) with
        | None, "select" | Some -1, _ -> None
        | None, _ -> default
        | b, _ -> b
      in
      let key = match effective with Some b when b < count -> Some b | _ -> None in
      let line =
        line_of
          [ ("cmd", str cmd); ("dfg", str text);
            opts
              (("pdef", int_json pdef)
              :: (match budget with Some b -> [ ("budget", int_json b) ] | None -> [])) ]
      in
      let shared = parse_ok cmd (Server.handle_line sess line)
      and fresh = parse_ok cmd (Server.handle_line (Session.create ()) line) in
      if strip_volatile shared <> strip_volatile fresh then
        QCheck2.Test.fail_reportf "request %d, %s:\nshared: %s\nfresh:  %s" i line
          (Json.to_line shared) (Json.to_line fresh);
      let warm = as_bool "warm" (member_exn cmd "warm" shared) in
      if warm <> List.mem key !seen then
        QCheck2.Test.fail_reportf "request %d, %s: warm %b" i line warm;
      if not (List.mem key !seen) then seen := key :: !seen)
    requests;
  Session.classification_count sess = List.length !seen
  || QCheck2.Test.fail_reportf "%d classifications for %d distinct ones"
       (Session.classification_count sess) (List.length !seen)

(* A budget that cuts the pool classifies on its own; an unbudgeted
   select then classifies the complete pool, which the default-budget
   pipeline and certify share, while the cut budget keeps its family. *)
let test_budget_families () =
  let sess = Session.create () in
  let ask what fields =
    let j = parse_ok what (Server.handle_line sess (line_of (("graph", str "w5dft") :: fields))) in
    (as_bool "warm" (member_exn what "warm" j), Session.classification_count sess)
  in
  let check what want got = Alcotest.(check (pair bool int)) what want got in
  check "pipeline at budget 100" (false, 1)
    (ask "pipeline" [ ("cmd", str "pipeline"); opts [ ("budget", int_json 100) ] ]);
  check "unbudgeted select" (false, 2) (ask "select" [ ("cmd", str "select") ]);
  check "pipeline at the default budget" (true, 2) (ask "pipeline" [ ("cmd", str "pipeline") ]);
  check "certify at the default budget" (true, 2) (ask "certify" [ ("cmd", str "certify") ]);
  check "budget 100 again" (true, 2)
    (ask "select" [ ("cmd", str "select"); opts [ ("budget", int_json 100) ] ])

(* Distinct Pdefs past the cap empty a family's selections instead of
   growing them; a report larger than the size cap is not kept (a huge
   Pdef on 14 unconnected nodes of 7 colors scores hundreds of candidates
   at each of hundreds of steps); every answer is Fig. 7's on a fresh
   classification. *)
let test_selection_cap () =
  let sess = Session.create () in
  let g = builtin "fig4" in
  let e, _ = Session.intern sess g in
  let cls = classify g in
  let options = { Pipeline.default_options with Pipeline.enumeration_budget = None } in
  for pdef = 1 to (2 * Session.selection_cap) + 10 do
    let report, _ = Session.select_report sess e ~options:{ options with Pipeline.pdef } in
    let kept = Session.selections e in
    if kept > Session.selection_cap then Alcotest.failf "Pdef %d: %d selections kept" pdef kept;
    Alcotest.(check int) (Printf.sprintf "Pdef %d: kept" pdef)
      (((pdef - 1) mod Session.selection_cap) + 1) kept;
    Alcotest.(check (list string)) (Printf.sprintf "Pdef %d: patterns" pdef)
      (List.map Pattern.to_string (Select.select ~pdef cls))
      (List.map Pattern.to_string report.Select.patterns)
  done;
  Alcotest.(check int) "one classification" 1 (Session.classification_count sess);
  let wide =
    Core.Dfg.of_alist
      (List.init 14 (fun i -> (Printf.sprintf "n%d" i, Core.Color.of_char (Char.chr (97 + (i mod 7))))))
      []
  in
  let e, _ = Session.intern sess wide in
  let huge = { options with Pipeline.pdef = 1_000_000_000_000_000 } in
  let report, _ = Session.select_report sess e ~options:huge in
  let size =
    List.fold_left
      (fun n (st : Select.step) -> n + 1 + List.length st.Select.priorities + List.length st.Select.deleted)
      (List.length report.Select.patterns) report.Select.steps
  in
  if size <= Session.selection_size_cap then Alcotest.failf "a report of %d entries fits" size;
  Alcotest.(check int) "an oversized report is not kept" 0 (Session.selections e);
  Alcotest.(check (list string)) "oversized: patterns"
    (List.map Pattern.to_string (Select.select ~pdef:huge.Pipeline.pdef (classify wide)))
    (List.map Pattern.to_string report.Select.patterns);
  ignore (Session.select_report sess e ~options);
  Alcotest.(check int) "a small one is" 1 (Session.selections e)

(* --- socket transport ------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_with_contents text =
  let path = Filename.temp_file "mps-serve" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

(* [Server.forward] over a connection to [path] that gives up after 5 s
   without progress in either direction: a server that stops answering or
   reading makes it an [Error] instead of a hang. *)
let forward_timed ~path ~requests ~responses =
  let ic, oc = Server.connect_unix ~path in
  let fd = Unix.descr_of_in_channel ic in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      match Server.forward (ic, oc) ~requests ~responses with
      | r -> r
      | exception Sys_blocked_io -> Error "timed out after 5 s"
      | exception Sys_error e -> Error e)

(* Forwards the request file over [path]; returns the response text. *)
let forward_file ~path requests =
  let out = Filename.temp_file "mps-serve" ".out" in
  let result =
    In_channel.with_open_bin requests (fun requests ->
        Out_channel.with_open_bin out (fun responses ->
            forward_timed ~path ~requests ~responses))
  in
  let text = read_file out in
  Sys.remove out;
  match result with
  | Ok () -> text
  | Error m -> Alcotest.failf "serve over socket: %s" m

let socket_counter = ref 0

(* Runs [client] against a server that accepts [connections] clients in
   turn on one session, from a second domain.  The path stays short:
   socket addresses are limited to about a hundred bytes. *)
let with_socket_server sess ~connections client =
  incr socket_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mps-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let fd = Server.listen_unix ~path in
  let server =
    Domain.spawn (fun () ->
        (* Closing the listening socket on the way out, failure included,
           turns a dead server into a refused or reset client instead of a
           hung one. *)
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            for _ = 1 to connections do
              Server.serve_connection sess fd
            done))
  in
  let result = client path in
  Domain.join server;
  Sys.remove path;
  result

(* The socket path must carry exactly the stream the --stdin golden pins.
   A request that is never answered fails the test after the client's
   5 s timeout; the server domain is then left unjoined. *)
let test_socket_matches_golden () =
  let got =
    with_socket_server (Session.create ()) ~connections:1 (fun path ->
        forward_file ~path "cli/serve_requests.txt")
  in
  Alcotest.(check string)
    "socket responses = serve_smoke.expected"
    (read_file "cli/serve_smoke.expected")
    got

(* A client that sends requests and disconnects without reading makes the
   server's response write fail.  That must cost only that connection: the
   next client on the same session is answered, from the warm caches the
   first client's requests filled. *)
let test_early_disconnect_keeps_session () =
  let sess = Session.create () in
  let line = "{\"cmd\":\"pipeline\",\"graph\":\"3dft\"}\n" in
  let requests = temp_with_contents (line ^ line) in
  let responses =
    with_socket_server sess ~connections:2 (fun path ->
        let ic, oc = Server.connect_unix ~path in
        output_string oc (line ^ line ^ line);
        close_out oc;
        close_in ic;
        forward_file ~path requests)
  in
  Sys.remove requests;
  let lines = String.split_on_char '\n' (String.trim responses) in
  Alcotest.(check int) "one response per request" 2 (List.length lines);
  List.iter
    (fun resp ->
      let j = parse_ok "after early disconnect" resp in
      Alcotest.(check bool) "warm" true
        (as_bool "warm" (member_exn "pipeline" "warm" j)))
    lines;
  (* The departed client's requests run in order until the first failed
     response write, so 1 to 3 of them ran, depending on timing. *)
  let executed = Session.request_count sess in
  if executed < 3 || executed > 5 then
    Alcotest.failf "expected 3 to 5 executed requests, got %d" executed

(* Far more request and response bytes than the socket buffers hold in
   either direction: 2,000 [stats] requests whose 1,000-byte ids the server
   echoes.  A client that sent everything before reading would block on a
   full send buffer while the server blocks on a full one the other way;
   [forward_timed]'s timeouts turn such a deadlock into a failure instead
   of a hang. *)
let test_socket_long_stream () =
  let n = 2000 in
  let id i = Printf.sprintf "%04d%s" i (String.make 996 'x') in
  let requests =
    temp_with_contents
      (String.concat ""
         (List.init n (fun i ->
              Printf.sprintf "{\"id\":\"%s\",\"cmd\":\"stats\"}\n" (id i))))
  in
  let out = Filename.temp_file "mps-serve" ".out" in
  let result =
    with_socket_server (Session.create ()) ~connections:1 (fun path ->
        In_channel.with_open_bin requests (fun requests ->
            Out_channel.with_open_bin out (fun responses ->
                forward_timed ~path ~requests ~responses)))
  in
  let lines = String.split_on_char '\n' (String.trim (read_file out)) in
  Sys.remove requests;
  Sys.remove out;
  (match result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "long stream over socket: %s" m);
  Alcotest.(check int) "one response per request" n (List.length lines);
  List.iteri
    (fun i resp ->
      let j = parse_ok "long stream" resp in
      if Json.member "id" j <> Some (Json.Str (id i)) then
        Alcotest.failf "response %d carries the wrong id" i)
    lines

(* A client that waits for each response before sending its next request
   must get it: the server answers every line as soon as it reads it,
   without waiting for more input. *)
let test_answers_each_request () =
  let sess = Session.create () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            close_in_noerr ic)
          (fun () -> Server.run sess ic oc))
  in
  let to_server = Unix.out_channel_of_descr req_w in
  let from_server = Unix.in_channel_of_descr resp_r in
  let ask line =
    output_string to_server (line ^ "\n");
    flush to_server;
    match Unix.select [ resp_r ] [] [] 5. with
    | [], _, _ -> None
    | _ -> Some (input_line from_server)
  in
  let first = ask "{\"id\":1,\"cmd\":\"select\",\"graph\":\"3dft\"}" in
  let second =
    if first = None then None else ask "{\"id\":2,\"cmd\":\"stats\"}"
  in
  close_out to_server;
  Domain.join server;
  close_in from_server;
  List.iter
    (fun (what, want, got) ->
      match got with
      | None -> Alcotest.failf "%s: no response within 5 s" what
      | Some resp ->
          Alcotest.(check bool)
            (what ^ ": id echoed") true
            (Json.member "id" (parse_ok what resp) = Some (Json.Num want)))
    [ ("first request", 1., first); ("second request", 2., second) ]

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          qtest ~count:100 "request_of_line inverts request_to_line"
            request_gen request_roundtrip;
          qtest ~count:10 "responses are single parseable lines" seed_gen
            response_line_roundtrip;
        ] );
      ( "fidelity",
        [
          qtest ~count:10 "serve pipeline = Pipeline.run" seed_gen
            serve_matches_pipeline;
          qtest ~count:10 "serve select = Select.select" seed_gen
            serve_matches_select;
        ] );
      ( "online edits",
        [
          qtest ~count:8
            "edit answers apply_edits' graph without re-classifying" seed_gen
            serve_edit_matches;
        ] );
      ( "warm state",
        [
          qtest ~count:8 "warm responses = cold responses" seed_gen
            warm_equals_cold;
          qtest ~count:8 "warm certify re-evaluates nothing" seed_gen
            warm_certify_evaluates_nothing;
          qtest ~count:8 "session certify = cold Pipeline.certify" seed_gen
            session_certify_matches_cold;
        ] );
      ( "determinism",
        [ qtest ~count:5 "response stream identical at jobs 1 and 4" seed_gen jobs_identical ] );
      ( "failure handling",
        [
          Alcotest.test_case "malformed requests leave the session serving"
            `Quick test_malformed_keeps_session_alive;
          Alcotest.test_case "errors echo the request id" `Quick
            test_error_echoes_id;
          Alcotest.test_case "cache stats: per-request deltas, session totals"
            `Quick test_cache_stats_accumulate;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "builtins are one value per process" `Quick
            test_builtins_shared;
          Alcotest.test_case "intern recognises a value and its copies" `Quick
            test_intern_identity;
          Alcotest.test_case "auto beam costs on the family context" `Quick
            test_auto_beam_on_family;
          Alcotest.test_case "beam refuses a context for another graph" `Quick
            test_beam_rejects_foreign_eval;
        ] );
      ( "response memo",
        [
          qtest ~count:40 "stream = memo-less reference" picks_gen
            (fun picks -> stream_matches_reference picks);
          qtest ~count:100 "stream = memo-less reference, max_graphs 2" picks_gen
            (stream_matches_reference ~max_graphs:2);
          qtest ~count:300 "splice = to_line of the whole object" object_groups_gen
            splice_matches_to_line;
          Alcotest.test_case "LRU bound: count, totals, cold after eviction" `Quick
            test_lru_bound;
          Alcotest.test_case "memo stays within its byte cap" `Quick test_memo_cap;
          Alcotest.test_case "stats reports memo and evictions" `Quick test_stats_schema;
          Alcotest.test_case "edit migrates its own base" `Quick test_edit_keyed_by_base;
        ] );
      ( "inline text",
        [
          qtest ~count:400 "lookup decodes as the decoder does" lookup_gen lookup_agrees;
          Alcotest.test_case "lookup: live entries only, not a use" `Quick
            test_lookup_live_entries;
        ] );
      ( "shared families",
        [
          qtest ~count:15 "one family per distinct classification = fresh sessions"
            shared_gen shared_families_match_fresh;
          Alcotest.test_case "a cut budget keeps its own family" `Quick test_budget_families;
          Alcotest.test_case "selections stay within their cap" `Quick test_selection_cap;
        ] );
      ( "stdin",
        [
          Alcotest.test_case "each request answered before the next is read"
            `Quick test_answers_each_request;
        ] );
      ( "socket",
        [
          Alcotest.test_case "stream matches the stdin golden" `Quick
            test_socket_matches_golden;
          Alcotest.test_case "early disconnect leaves the session serving"
            `Quick test_early_disconnect_keeps_session;
          Alcotest.test_case "stream larger than the socket buffers" `Quick
            test_socket_long_stream;
        ] );
    ]
