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

(* Per-request cache stats are deltas; session stats are cumulative. *)
let test_cache_stats_accumulate () =
  let sess = Session.create () in
  let line = "{\"cmd\":\"select\",\"graph\":\"3dft\"}" in
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
  (* First request costs the selected set once: a miss.  The repeat is a
     pure memo hit, and the session totals accumulate both. *)
  Alcotest.(check (pair int int)) "cold request delta" (0, 1) (h1, m1);
  Alcotest.(check (pair int int)) "cold session totals" (0, 1) (sh1, sm1);
  Alcotest.(check (pair int int)) "warm request delta" (1, 0) (h2, m2);
  Alcotest.(check (pair int int)) "warm session totals" (1, 1) (sh2, sm2);
  let h, m = Session.session_cache_stats sess in
  Alcotest.(check (pair int int)) "session_cache_stats agrees" (sh2, sm2) (h, m)

(* --- sharing ------------------------------------------------------------ *)

let builtin name =
  match Server.resolve_source (Protocol.Builtin name) with
  | Ok g -> g
  | Error m -> Alcotest.fail m

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
   family's context: the cold request misses on each of the four, its
   repeat hits them, and both answer what a cold Auto.select does. *)
let test_auto_beam_on_family () =
  let sess = Session.create () in
  let line = "{\"cmd\":\"select\",\"graph\":\"w5dft\",\"options\":{\"strategy\":\"auto\"}}" in
  let cold = Core.Auto.select ~pdef:Pipeline.default_options.Pipeline.pdef (classify (builtin "w5dft")) in
  List.iter
    (fun (what, want) ->
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
    [ ("cold", (0, 4)); ("warm", (4, 0)) ]

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
