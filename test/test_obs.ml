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
   exact search reports are the sum of its per-task counters, so they match
   the certificate's own accounting and are identical for any --jobs. *)
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
            Exact.search ?pool ~pdef:3
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
        ] );
    ]
