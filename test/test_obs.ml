(* Tests for Mps_obs: disabled collectors record nothing, span trees are
   well-formed (even across exceptions), counter totals are identical for
   any --jobs, and the Chrome trace JSON round-trips through the bundled
   parser. *)

module Obs = Mps_obs.Obs
module Json = Mps_util.Json
module Pipeline = Core.Pipeline
module Pg = Mps_workloads.Paper_graphs

let test_disabled_is_noop () =
  (* No collector installed: span/count/observe must be inert. *)
  Alcotest.(check bool) "inactive outside run" false (Obs.active ());
  let r =
    Obs.span "ghost" (fun () ->
        Obs.count "ghost.counter" 7;
        Obs.observe "ghost.dist" 3;
        42)
  in
  Alcotest.(check int) "span is transparent" 42 r;
  (* And a fresh collector that never ran anything holds nothing. *)
  let obs = Obs.create () in
  Alcotest.(check int) "no events" 0 (Obs.event_count obs);
  Alcotest.(check int) "no counters" 0 (List.length (Obs.counters obs));
  Alcotest.(check string) "empty summary" "no events recorded\n"
    (Obs.summary_table obs)

let test_nesting_well_formed () =
  let obs = Obs.create () in
  Obs.run obs (fun () ->
      Alcotest.(check bool) "active inside run" true (Obs.active ());
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () -> Obs.count "c" 1);
          (* A span body that raises must still close its span. *)
          (try Obs.span "boom" (fun () -> failwith "boom")
           with Failure _ -> ());
          Obs.span "inner" (fun () -> Obs.count "c" 2)));
  Alcotest.(check bool) "well formed" true (Obs.well_formed obs);
  let paths = List.map (fun p -> p.Obs.path) (Obs.phases obs) in
  Alcotest.(check (list string))
    "phase paths"
    [ "outer"; "outer/boom"; "outer/inner" ]
    paths;
  let inner = List.find (fun p -> p.Obs.path = "outer/inner") (Obs.phases obs) in
  Alcotest.(check int) "inner called twice" 2 inner.Obs.calls;
  match Obs.counters obs with
  | [ c ] ->
      Alcotest.(check string) "counter name" "c" c.Obs.name;
      Alcotest.(check int) "counter total" 3 c.Obs.total;
      Alcotest.(check int) "counter samples" 2 c.Obs.samples
  | cs -> Alcotest.failf "expected one counter, got %d" (List.length cs)

let pipeline_counters jobs =
  let obs = Obs.create () in
  let (_ : Pipeline.t) =
    Mps_exec.Pool.with_pool ~jobs (fun pool ->
        Obs.run obs (fun () -> Pipeline.run ~pool (Pg.fig2_3dft ())))
  in
  List.map
    (fun c ->
      Printf.sprintf "%s/%s/%d/%d/%d/%d" c.Obs.name
        (match c.Obs.kind with Obs.Sum -> "sum" | Obs.Dist -> "dist")
        c.Obs.samples c.Obs.total c.Obs.vmin c.Obs.vmax)
    (Obs.counters obs)

let test_counters_jobs_invariant () =
  let seq = pipeline_counters 1 in
  Alcotest.(check bool) "some counters recorded" true (seq <> []);
  Alcotest.(check (list string)) "jobs 4 = jobs 1" seq (pipeline_counters 4)

(* The classification counters at jobs 1, pinned to the values the
   list-based walk reported on Fig. 2: the bulk last level recomputes
   [enumerate.pruned] from popcounts, so a jobs-4 = jobs-1 comparison alone
   would not notice it drifting. *)
let test_classify_counters_pinned () =
  let rows = pipeline_counters 1 in
  List.iter
    (fun expect ->
      let name = List.hd (String.split_on_char '/' expect) in
      Alcotest.(check (option string))
        name (Some expect)
        (List.find_opt (fun row -> List.hd (String.split_on_char '/' row) = name) rows))
    [
      "classify.antichains/sum/1/3430/3430/3430";
      "classify.patterns/sum/1/54/54/54";
      "enumerate.pruned/sum/14/1496/12/381";
    ]

let test_chrome_trace_roundtrip () =
  let obs = Obs.create () in
  let (_ : Pipeline.t) =
    Obs.run obs (fun () -> Pipeline.run (Pg.fig2_3dft ()))
  in
  let text = Obs.chrome_trace obs in
  (match Json.parse text with
  | Error m -> Alcotest.failf "trace does not parse: %s" m
  | Ok v -> (
      match Json.member "traceEvents" v with
      | Some (Json.Arr evs) ->
          Alcotest.(check bool) "has events" true (evs <> [])
      | _ -> Alcotest.fail "traceEvents missing or not an array"));
  match Obs.validate_chrome_trace text with
  | Ok n -> Alcotest.(check bool) "validated events" true (n > 0)
  | Error m -> Alcotest.failf "trace fails validation: %s" m

(* --- merge properties ----------------------------------------------------
   [Obs.merge] is the replay primitive: folding a precomputed aggregate must
   be indistinguishable from having recorded the individual samples, and
   merging must be grouping-invariant (pre-merging any prefix then the rest
   gives the same counter table).  These are the invariants the Eval memo
   cache and the pool's per-task buffers lean on. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* An op stream over two Sum counters (via [count]) and two Dist counters
   (via [observe]). *)
let ops_gen = QCheck2.Gen.(list_size (1 -- 40) (pair (0 -- 3) (1 -- 100)))

let record_op (idx, v) =
  if idx < 2 then Obs.count (Printf.sprintf "s%d" idx) v
  else Obs.observe (Printf.sprintf "d%d" (idx - 2)) v

(* Per-name aggregates of an op stream, in first-appearance order. *)
let aggregates ops =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (idx, v) ->
      let name, kind =
        if idx < 2 then (Printf.sprintf "s%d" idx, Obs.Sum)
        else (Printf.sprintf "d%d" (idx - 2), Obs.Dist)
      in
      match Hashtbl.find_opt tbl name with
      | None ->
          order := name :: !order;
          Hashtbl.replace tbl name (kind, 1, v, v, v)
      | Some (k, s, t, mn, mx) ->
          Hashtbl.replace tbl name (k, s + 1, t + v, min mn v, max mx v))
    ops;
  List.rev_map
    (fun n ->
      let k, s, t, mn, mx = Hashtbl.find tbl n in
      (n, k, s, t, mn, mx))
    !order

let fingerprint obs =
  List.map
    (fun c ->
      Printf.sprintf "%s/%s/%d/%d/%d/%d" c.Obs.name
        (match c.Obs.kind with Obs.Sum -> "sum" | Obs.Dist -> "dist")
        c.Obs.samples c.Obs.total c.Obs.vmin c.Obs.vmax)
    (Obs.counters obs)

let record_inline ops =
  let obs = Obs.create () in
  Obs.run obs (fun () -> List.iter record_op ops);
  fingerprint obs

let record_merged chunks =
  let obs = Obs.create () in
  Obs.run obs (fun () ->
      List.iter
        (fun chunk ->
          List.iter
            (fun (n, k, s, t, mn, mx) ->
              Obs.merge n k ~samples:s ~total:t ~vmin:mn ~vmax:mx)
            (aggregates chunk))
        chunks);
  fingerprint obs

let record_tasked n ops =
  let obs = Obs.create () in
  Obs.run obs (fun () ->
      match Obs.Task.begin_batch ~n with
      | None -> Alcotest.fail "collector installed but no task buffers"
      | Some bufs ->
          List.iteri
            (fun i op -> Obs.Task.run_in bufs.(i mod n) (fun () -> record_op op))
            ops;
          Obs.Task.commit bufs);
  fingerprint obs

let rec split_at k = function
  | rest when k = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
      let a, b = split_at (k - 1) rest in
      (x :: a, b)

let merge_props =
  [
    qtest "merge: replaying the aggregate = recording each sample" ops_gen
      (fun ops -> record_merged [ ops ] = record_inline ops);
    qtest "merge: grouping-invariant (any split point)"
      QCheck2.Gen.(pair ops_gen (0 -- 40))
      (fun (ops, k) ->
        let a, b = split_at (min k (List.length ops)) ops in
        record_merged [ a; b ] = record_inline ops);
    qtest "merge: task-buffer commit = inline recording, any batch width"
      QCheck2.Gen.(pair ops_gen (1 -- 4))
      (fun (ops, n) -> record_tasked n ops = record_inline ops);
  ]

(* The end-to-end version of the same invariant: the --stats totals an
   exact search reports match the certificate's own accounting, and are
   identical whether its classification ran on 1 or 4 domains. *)
let test_exact_counters_match_stats () =
  let module Exact = Mps_select.Exact in
  let module Classify = Mps_antichain.Classify in
  let module Enumerate = Mps_antichain.Enumerate in
  let module Pool = Mps_exec.Pool in
  let g = Pg.fig2_3dft () in
  let run jobs =
    let obs = Obs.create () in
    let ct =
      Obs.run obs (fun () ->
          let search pool =
            Exact.search ~pdef:3
              (Classify.compute ?pool ~span_limit:1 ~capacity:5
                 (Enumerate.make_ctx g))
          in
          if jobs = 1 then search None
          else Pool.with_pool ~jobs (fun p -> search (Some p)))
    in
    (fingerprint obs, ct)
  in
  let fp1, ct1 = run 1 in
  let fp4, _ = run 4 in
  Alcotest.(check (list string)) "counter tables jobs 4 = jobs 1" fp1 fp4;
  let obs_total name =
    match
      List.find_opt
        (fun line ->
          String.length line > String.length name
          && String.sub line 0 (String.length name) = name)
        fp1
    with
    | Some line -> Scanf.sscanf line "%s@/sum/%d/%d/%d/%d" (fun _ _ t _ _ -> t)
    | None -> Alcotest.failf "counter %s not recorded" name
  in
  let s = ct1.Exact.stats in
  List.iter
    (fun (name, expect) ->
      Alcotest.(check int) (name ^ " total = certificate") expect (obs_total name))
    [
      ("exact.nodes.visited", s.Exact.nodes_visited);
      ("exact.pruned.span", s.Exact.pruned_span);
      ("exact.pruned.color", s.Exact.pruned_color);
      ("exact.pruned.ban", s.Exact.pruned_ban);
      ("exact.pruned.dominance", s.Exact.pruned_dominance);
      ("exact.evaluated", s.Exact.evaluated);
    ]

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\n\ttab \\ slash");
        ("n", Json.Num 3.25);
        ("i", Json.Num 17.0);
        ("neg", Json.Num (-4.0));
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trips" true (v = v')
  | Error m -> Alcotest.failf "emitted JSON does not parse: %s" m

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{}trailing" ]

(* --- the run-based codec against the character-at-a-time one --- *)

(* Numbers around the integral fast path's edges: zero of either sign,
   ±1e15 and their neighbours, and values past 2^53. *)
let edge_numbers =
  [
    0.0; -0.0; 1.0; -1.0; 1e15; -1e15; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15 +. 2.0;
    Float.pred 1e15; Float.succ 1e15; Float.pred (-1e15); 999999999999999.5; 0.5;
    -0.5; 1e-300; 5e-324; 2. ** 53.; 2. ** 62.; -.(2. ** 63.); 1e300; Float.infinity;
    Float.neg_infinity; Float.nan; 3.25; 17.0; 123456789012.0;
  ]

let json_gen =
  QCheck2.Gen.(
    let str =
      map
        (fun cs -> String.concat "" cs)
        (list_size (0 -- 8)
           (oneof
              [
                oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\031"; "\127"; "/"; "\255"; "ab" ];
                map (String.make 1) char;
              ]))
    in
    let num =
      oneof
        [
          oneofl edge_numbers;
          map float_of_int (-2_000_000 -- 2_000_000);
          float;
          map (fun (m, e) -> float_of_int m *. (10. ** float_of_int e)) (pair (-999 -- 999) (-20 -- 20));
        ]
    in
    sized
    @@ fix (fun self size ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) num;
                 map (fun s -> Json.Str s) str;
               ]
           in
           if size <= 1 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun xs -> Json.Arr xs) (list_size (0 -- 4) (self (size / 3))));
                 ( 1,
                   map (fun kvs -> Json.Obj kvs) (list_size (0 -- 4) (pair str (self (size / 3))))
                 );
               ]))

let test_json_pinned () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) want (Json.to_line (Json.Num f));
      Alcotest.(check string) (Printf.sprintf "%h: reference" f) (Json_ref.to_line (Json.Num f))
        (Json.to_line (Json.Num f)))
    [
      (-0.0, "-0"); (0.0, "0"); (1e15, "1e+15"); (-1e15, "-1e+15");
      (1e15 -. 1.0, "999999999999999"); (-.(1e15 -. 1.0), "-999999999999999");
      (Float.pred 1e15, "1e+15"); (3.25, "3.25"); (17.0, "17");
    ];
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (Json_ref.to_line (Json.Num f))
        (Json.to_line (Json.Num f)))
    edge_numbers;
  Alcotest.(check string) "control characters" {|"\u0000\u001f\n\r\t\"\\/"|}
    (Json.to_line (Json.Str "\000\031\n\r\t\"\\/"));
  (* [\u] escapes decode to UTF-8, a surrogate pair to its one code
     point; a surrogate without its other half and a number that
     overflows are refused at pinned offsets.  The reference agrees. *)
  let show = function Ok v -> "Ok " ^ Json.to_line v | Error m -> "Error " ^ m in
  List.iter
    (fun (line, want) ->
      Alcotest.(check string) line (show want) (show (Json.parse line));
      Alcotest.(check string) (line ^ ": reference") (show want) (show (Json_ref.parse line)))
    [
      ({|"\u00e9"|}, Ok (Json.Str "\xc3\xa9"));
      ({|"\u00E9"|}, Ok (Json.Str "\xc3\xa9"));
      ("\"\xc3\xa9\"", Ok (Json.Str "\xc3\xa9"));
      ({|"\u0041\u007f\u0080"|}, Ok (Json.Str "A\x7f\xc2\x80"));
      ({|"\u4e2d\u4e8c"|}, Ok (Json.Str "\xe4\xb8\xad\xe4\xba\x8c"));
      ({|"\uffff"|}, Ok (Json.Str "\xef\xbf\xbf"));
      ({|"x\ud83d\ude00y"|}, Ok (Json.Str "x\xf0\x9f\x98\x80y"));
      ({|"\udbff\udfff"|}, Ok (Json.Str "\xf4\x8f\xbf\xbf"));
      ({|"\ud800"|}, Error "offset 3: bad \\u escape");
      ({|"ab\udc00"|}, Error "offset 5: bad \\u escape");
      ({|"\ud83dA"|}, Error "offset 3: bad \\u escape");
      ({|"\ud800\u0041"|}, Error "offset 3: bad \\u escape");
      ({|"\ud800\ud800"|}, Error "offset 3: bad \\u escape");
      ({|"\ud800\uzzzz"|}, Error "offset 3: bad \\u escape");
      ({|"\ud800\u00|}, Error "offset 3: bad \\u escape");
      ({|"\u12|}, Error "offset 3: truncated \\u escape");
      ({|[1e308,-1e308]|}, Ok (Json.Arr [ Json.Num 1e308; Json.Num (-1e308) ]));
      ({|1e400|}, Error "offset 5: number out of range");
      ({|{"id":-1e400}|}, Error "offset 12: number out of range");
      (* Exactly four hex digits, and RFC 8259's number grammar. *)
      ({|{"id":"\u1_23","cmd":"stats"}|}, Error "offset 9: bad \\u escape");
      ({|"\u+123"|}, Error "offset 3: bad \\u escape");
      ({|{"id":+1}|}, Error "offset 6: expected a number");
      ({|{"id":.5}|}, Error "offset 6: expected a number");
      ({|{"id":01}|}, Error "offset 7: malformed number");
      ({|{"id":1.}|}, Error "offset 8: malformed number");
      ({|[1e]|}, Error "offset 3: malformed number");
      ({|[1e+]|}, Error "offset 4: malformed number");
      ({|-|}, Error "offset 1: malformed number");
      ({|[-0,1e5,0.5,1E+2,-12.5e-1]|},
        Ok (Json.Arr [ Json.Num (-0.); Json.Num 1e5; Json.Num 0.5; Json.Num 100.; Json.Num (-1.25) ]));
    ]

let json_props =
  [
    qtest ~count:2000 "render = reference" json_gen (fun v ->
        Json.to_line v = Json_ref.to_line v && Json.to_string v = Json_ref.to_string v);
    qtest ~count:2000 "parse mutants = reference"
      QCheck2.Gen.(
        triple json_gen
          (list_size (0 -- 3) (triple (0 -- 100_000) (0 -- 2) char))
          (oneofl [ ""; " "; "\n"; "\\"; "\"" ]))
      (fun (v, edits, tail) ->
        let line =
          List.fold_left
            (fun t (pos, op, c) ->
              let n = String.length t in
              let i = pos mod (n + 1) in
              match op with
              | 0 when i < n -> String.mapi (fun j d -> if j = i then c else d) t
              | 1 when i < n -> String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
              | _ -> String.sub t 0 i ^ String.make 1 c ^ String.sub t i (n - i))
            (Json.to_line v ^ tail) edits
        in
        let got = Json.parse line and want = Json_ref.parse line in
        got = want
        || QCheck2.Test.fail_reportf "%S: the codecs disagree (%s)" line
             (match want with Ok _ -> "reference parses" | Error m -> m));
  ]

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "nesting well-formed" `Quick
            test_nesting_well_formed;
          Alcotest.test_case "counters independent of jobs" `Quick
            test_counters_jobs_invariant;
          Alcotest.test_case "classification counters pinned" `Quick
            test_classify_counters_pinned;
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_trace_roundtrip;
        ] );
      ( "merge",
        merge_props
        @ [
            Alcotest.test_case "exact --stats totals = certificate stats"
              `Quick test_exact_counters_match_stats;
          ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "numbers and escapes pinned" `Quick test_json_pinned;
        ]
        @ json_props );
    ]
