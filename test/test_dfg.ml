(* DFG substrate: builder, cycle detection, topological order, levels,
   reachability, text format, DOT export — unit tests plus properties over
   random layered DAGs. *)

module Color = Mps_dfg.Color
module Dfg = Mps_dfg.Dfg
module Topo = Mps_dfg.Topo
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Parse = Mps_dfg.Parse
module Dot = Mps_dfg.Dot
module Random_dag = Mps_workloads.Random_dag
module Pg = Mps_workloads.Paper_graphs
module Suite = Mps_workloads.Suite
module Protocol = Mps_serve.Protocol
module Session = Mps_serve.Session

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dag_gen =
  QCheck2.Gen.(
    map
      (fun seed -> Random_dag.generate ~seed ())
      (0 -- 10_000))

(* --- colors --- *)

let test_color () =
  Alcotest.(check char) "round trip" 'q' (Color.to_char (Color.of_char 'q'));
  Alcotest.(check int) "index of a" 0 (Color.to_index Color.add);
  Alcotest.(check char) "of_int 27" 'B' (Color.to_char (Color.of_int 27));
  Alcotest.check_raises "dummy rejected"
    (Invalid_argument "Color.of_char: invalid color '-'") (fun () ->
      ignore (Color.of_char '-'));
  Alcotest.check_raises "space rejected"
    (Invalid_argument "Color.of_char: invalid color ' '") (fun () ->
      ignore (Color.of_char ' '))

(* --- builder --- *)

let test_builder_basics () =
  let b = Dfg.Builder.create () in
  let x = Dfg.Builder.add_node b ~name:"x" Color.add in
  let y = Dfg.Builder.add_node b Color.mul in
  Dfg.Builder.add_edge b x y;
  Dfg.Builder.add_edge b x y;
  (* duplicate collapses *)
  let g = Dfg.Builder.build b in
  Alcotest.(check int) "two nodes" 2 (Dfg.node_count g);
  Alcotest.(check int) "one edge" 1 (Dfg.edge_count g);
  Alcotest.(check string) "default name" "c1" (Dfg.name g y);
  Alcotest.(check (list int)) "succs" [ y ] (Dfg.succs g x);
  Alcotest.(check (list int)) "preds" [ x ] (Dfg.preds g y);
  Alcotest.(check (list int)) "sources" [ x ] (Dfg.sources g);
  Alcotest.(check (list int)) "sinks" [ y ] (Dfg.sinks g)

let test_builder_rejects () =
  let b = Dfg.Builder.create () in
  let x = Dfg.Builder.add_node b ~name:"x" Color.add in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Dfg.Builder.add_node: duplicate name \"x\"") (fun () ->
      ignore (Dfg.Builder.add_node b ~name:"x" Color.add));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dfg.Builder.add_edge: self-loop on node 0") (fun () ->
      Dfg.Builder.add_edge b x x);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Dfg.Builder: unknown node id 5") (fun () ->
      Dfg.Builder.add_edge b x 5)

let test_cycle_detection () =
  let b = Dfg.Builder.create () in
  let x = Dfg.Builder.add_node b ~name:"x" Color.add in
  let y = Dfg.Builder.add_node b ~name:"y" Color.add in
  let z = Dfg.Builder.add_node b ~name:"z" Color.add in
  Dfg.Builder.add_edge b x y;
  Dfg.Builder.add_edge b y z;
  Dfg.Builder.add_edge b z x;
  (match Dfg.Builder.build b with
  | exception Dfg.Cycle names ->
      Alcotest.(check (list string)) "cycle names" [ "x"; "y"; "z" ]
        (List.sort String.compare names)
  | _ -> Alcotest.fail "cycle not detected")

(* A node that only hangs below a cycle used to end the cycle walk in
   [Not_found]; the text parser then escaped its own error handling and
   a serve session died on one request. *)
let test_cycle_below_dead_end () =
  let text = "node a1 a\nnode b1 b\nnode c1 c\nedge b1 c1\nedge c1 b1\nedge c1 a1\n" in
  (match Parse.of_string text with
  | exception Dfg.Cycle names ->
      Alcotest.(check (list string)) "cycle names" [ "b1"; "c1" ] names
  | _ -> Alcotest.fail "cycle not detected");
  let sess = Session.create () in
  let line =
    Protocol.request_to_line
      (Protocol.make ~id:(Mps_util.Json.Num 1.) ~source:(Protocol.Dfg_text text) Protocol.Select)
  in
  Alcotest.(check string) "serve answers"
    {|{"id":1,"ok":false,"error":"graph has a cycle: b1 -> c1"}|}
    (Mps_serve.Server.handle_line sess line)

(* The walk before the dead-end fix: from the first node Kahn's
   algorithm left, always to the first successor it left, until a node
   repeats; [None] where that walk dead-ended. *)
let old_cycle_walk n succs =
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun d -> indeg.(d) <- indeg.(d) + 1)) succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  while not (Queue.is_empty queue) do
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      succs.(Queue.pop queue)
  done;
  let rec walk path i =
    if List.mem i path then
      let rec drop = function [] -> [] | j :: rest -> if j = i then j :: rest else drop rest in
      Some (drop (List.rev path))
    else
      match List.find_opt (fun d -> indeg.(d) > 0) succs.(i) with
      | None -> None
      | Some d -> walk (i :: path) d
  in
  let rec first i = if i = n then None else if indeg.(i) > 0 then Some i else first (i + 1) in
  Option.bind (first 0) (walk [])

let cyclic_gen =
  QCheck2.Gen.(
    bind (2 -- 9) (fun n ->
        map
          (fun edges -> (n, List.filter (fun (s, d) -> s <> d) edges))
          (list_size (1 -- 20) (pair (0 -- (n - 1)) (0 -- (n - 1))))))

let cycle_props =
  [
    qtest ~count:500 "cycle: the old walk, or a real cycle" cyclic_gen (fun (n, edges) ->
        let b = Dfg.Builder.create () in
        for i = 0 to n - 1 do
          ignore (Dfg.Builder.add_node b ~name:(Printf.sprintf "v%d" i) Color.add)
        done;
        List.iter (fun (s, d) -> Dfg.Builder.add_edge b s d) edges;
        let succs =
          Array.init n (fun s ->
              List.sort_uniq compare (List.filter_map (fun (s', d) -> if s' = s then Some d else None) edges))
        in
        let name i = Printf.sprintf "v%d" i in
        match Dfg.Builder.build b with
        | _ -> old_cycle_walk n succs = None
        | exception Dfg.Cycle names -> (
            match old_cycle_walk n succs with
            | Some cycle -> names = List.map name cycle
            | None ->
                (* Where the old walk dead-ended: any real cycle. *)
                let ids = List.map (fun s -> int_of_string (String.sub s 1 (String.length s - 1))) names in
                let next = List.tl ids @ [ List.hd ids ] in
                List.for_all2 (fun s d -> List.mem d succs.(s)) ids next));
  ]

let test_builder_snapshot () =
  let b = Dfg.Builder.create () in
  let x = Dfg.Builder.add_node b ~name:"x" Color.add in
  let g1 = Dfg.Builder.build b in
  let y = Dfg.Builder.add_node b ~name:"y" Color.sub in
  Dfg.Builder.add_edge b x y;
  let g2 = Dfg.Builder.build b in
  Alcotest.(check int) "snapshot unchanged" 1 (Dfg.node_count g1);
  Alcotest.(check int) "extended" 2 (Dfg.node_count g2)

let test_of_alist_errors () =
  Alcotest.check_raises "unknown edge endpoint"
    (Invalid_argument "Dfg.of_alist: unknown node \"nope\" in edge") (fun () ->
      ignore (Dfg.of_alist [ ("x", Color.add) ] [ ("x", "nope") ]))

let test_induced_and_reverse () =
  let g = Pg.fig4_small () in
  let sub, mapping = Dfg.induced g [ Dfg.find g "a1"; Dfg.find g "a2"; Dfg.find g "b4" ] in
  Alcotest.(check int) "3 nodes" 3 (Dfg.node_count sub);
  Alcotest.(check int) "2 edges (a1->a2->b4)" 2 (Dfg.edge_count sub);
  Alcotest.(check string) "mapping back" "a1" (Dfg.name g mapping.(0));
  let r = Dfg.reverse g in
  Alcotest.(check int) "reverse preserves edges" (Dfg.edge_count g) (Dfg.edge_count r);
  Alcotest.(check (list string)) "reverse sources = sinks"
    (List.sort String.compare (List.map (Dfg.name g) (Dfg.sinks g)))
    (List.sort String.compare (List.map (Dfg.name r) (Dfg.sources r)))

(* --- topo --- *)

let test_topo_order () =
  let g = Pg.fig2_3dft () in
  Alcotest.(check bool) "valid order" true (Topo.is_order g (Topo.order g));
  Alcotest.(check bool) "reject wrong perm" false
    (Topo.is_order g (List.rev (Topo.order g)));
  Alcotest.(check bool) "reject short list" false (Topo.is_order g [ 0; 1 ])

let test_longest_path () =
  let g = Pg.fig2_3dft () in
  Alcotest.(check int) "5 nodes on the critical path" 5 (Topo.longest_path_length g);
  let p = Topo.longest_path g in
  Alcotest.(check int) "path length matches" 5 (List.length p);
  (* consecutive nodes are edges *)
  let rec consecutive = function
    | a :: (b :: _ as rest) -> List.mem b (Dfg.succs g a) && consecutive rest
    | _ -> true
  in
  Alcotest.(check bool) "is a path" true (consecutive p)

(* --- levels (generic properties; Table 1 exactness lives in
   test_paper_tables) --- *)

let check_levels_invariants g =
  let lv = Levels.compute g in
  List.for_all
    (fun i ->
      Levels.asap lv i <= Levels.alap lv i
      && Levels.asap lv i >= 0
      && Levels.alap lv i <= Levels.asap_max lv
      && Levels.height lv i >= 1
      && List.for_all (fun s -> Levels.asap lv s > Levels.asap lv i) (Dfg.succs g i)
      && List.for_all (fun s -> Levels.height lv i > Levels.height lv s) (Dfg.succs g i))
    (Dfg.nodes g)

let test_levels_small () =
  let g = Pg.fig4_small () in
  let lv = Levels.compute g in
  let at name = Dfg.find g name in
  Alcotest.(check int) "asap a2" 1 (Levels.asap lv (at "a2"));
  Alcotest.(check int) "alap a3" 1 (Levels.alap lv (at "a3"));
  Alcotest.(check int) "height a1" 3 (Levels.height lv (at "a1"));
  Alcotest.(check int) "mobility a3" 1 (Levels.mobility lv (at "a3"));
  Alcotest.(check bool) "a1 critical" true (Levels.critical lv (at "a1"));
  Alcotest.(check int) "lower bound" 3 (Levels.lower_bound_cycles lv)

let test_span_and_bound () =
  let g = Pg.fig2_3dft () in
  let lv = Levels.compute g in
  let at name = Dfg.find g name in
  (* The paper's §5.1 example: Span({a24, b3}) = 1. *)
  Alcotest.(check int) "span {a24,b3}" 1 (Levels.span lv [ at "a24"; at "b3" ]);
  Alcotest.(check int) "bound {a24,b3}" 6 (Levels.span_bound lv [ at "a24"; at "b3" ]);
  (* Zero span for co-leveled nodes. *)
  Alcotest.(check int) "span {b3,b6}" 0 (Levels.span lv [ at "b3"; at "b6" ])

let levels_props =
  [
    qtest "levels: invariants on random DAGs" dag_gen check_levels_invariants;
    qtest "levels: asap_max+1 = longest path" dag_gen (fun g ->
        Levels.lower_bound_cycles (Levels.compute g) = Topo.longest_path_length g);
  ]

(* --- reachability --- *)

let test_reachability_fig2 () =
  let g = Pg.fig2_3dft () in
  let r = Reachability.compute g in
  let at name = Dfg.find g name in
  Alcotest.(check bool) "a17 follows b6" true
    (Reachability.is_follower r ~of_:(at "b6") (at "a17"));
  Alcotest.(check bool) "b6 does not follow a17" false
    (Reachability.is_follower r ~of_:(at "a17") (at "b6"));
  (* The §3 example: A1 is an antichain, A2 is not. *)
  let ids = List.map at in
  Alcotest.(check bool) "A1 antichain" true
    (Reachability.is_antichain r (ids [ "b1"; "a4"; "b3"; "b6"; "a16"; "c10" ]));
  Alcotest.(check bool) "A2 not antichain" false
    (Reachability.is_antichain r (ids [ "b1"; "a4"; "b3"; "b6"; "a16"; "a17" ]));
  Alcotest.(check int) "52 comparable pairs" 52 (Reachability.comparable_pairs r)

(* DAGs of every shape the generator makes, from one chain-like layer per
   node to wide, dense and sparse ones. *)
let shaped_dag_gen =
  QCheck2.Gen.(
    map
      (fun (seed, layers, width, p) ->
        Random_dag.generate
          ~params:
            { Random_dag.default_params with Random_dag.layers; width; edge_prob = p }
          ~seed ())
      (quad (0 -- 10_000) (1 -- 9) (1 -- 9) (oneofl [ 0.1; 0.4; 0.9 ])))

(* The closure computed one pair at a time (Warshall): [path.(i).(j)] when
   some path leads from i to j.  [Reachability.compute] must give the same
   descendants, parallel sets and comparability. *)
let reachability_matches_closure g =
  let n = Dfg.node_count g in
  let path = Array.make_matrix n n false in
  List.iter (fun (s, d) -> path.(s).(d) <- true) (Dfg.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if path.(i).(k) then
        for j = 0 to n - 1 do
          if path.(k).(j) then path.(i).(j) <- true
        done
    done
  done;
  let r = Reachability.compute g in
  let members set = Mps_util.Bitset.elements set in
  let nodes = Dfg.nodes g in
  List.for_all
    (fun i ->
      members (Reachability.descendants r i) = List.filter (fun j -> path.(i).(j)) nodes
      && members (Reachability.parallel_set r i)
         = List.filter (fun j -> j <> i && not (path.(i).(j) || path.(j).(i))) nodes
      && List.for_all
           (fun j -> Reachability.comparable r i j = (path.(i).(j) || path.(j).(i)))
           nodes)
    nodes

let reachability_props =
  [
    qtest "reachability: matches per-edge closure" dag_gen (fun g ->
        let r = Reachability.compute g in
        (* Every edge implies descendant; descendants are transitively
           closed. *)
        List.for_all
          (fun (s, d) -> Reachability.is_follower r ~of_:s d)
          (Dfg.edges g)
        && List.for_all
             (fun i ->
               Mps_util.Bitset.fold
                 (fun j acc ->
                   acc
                   && Mps_util.Bitset.subset
                        (Reachability.descendants r j)
                        (Reachability.descendants r i))
                 (Reachability.descendants r i)
                 true)
             (Dfg.nodes g));
    qtest "reachability: parallel_set symmetric" dag_gen (fun g ->
        let r = Reachability.compute g in
        List.for_all
          (fun i ->
            List.for_all
              (fun j -> Reachability.parallelizable r i j = Reachability.parallelizable r j i)
              (Dfg.nodes g))
          (Dfg.nodes g));
    qtest ~count:200 "reachability: = pair-by-pair transitive closure" shaped_dag_gen
      reachability_matches_closure;
  ]

(* --- text format --- *)

let test_parse_roundtrip () =
  let g = Pg.fig2_3dft () in
  let g' = Parse.of_string (Parse.to_string g) in
  Alcotest.(check bool) "round trip" true (Dfg.equal g g')

let test_parse_comments_and_errors () =
  let g = Parse.of_string "# header\nnode x a  # trailing\n\nnode y b\nedge x y\n" in
  Alcotest.(check int) "two nodes" 2 (Dfg.node_count g);
  (match Parse.of_string "node x a\nedge x zz\n" with
  | exception Parse.Parse_error { line; _ } -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "unknown edge accepted");
  match Parse.of_string "nonsense here\n" with
  | exception Parse.Parse_error { line; _ } -> Alcotest.(check int) "line" 1 line
  | _ -> Alcotest.fail "bad directive accepted"

let parse_props =
  [
    qtest "parse: to_string/of_string identity" dag_gen (fun g ->
        Dfg.equal g (Parse.of_string (Parse.to_string g)));
  ]

(* The format sniff decides on the first line with a token, whatever
   blank and comment lines come before it.  A native file with a "//"
   line is still sniffed as native (and then refused: the native format
   knows only '#' comments). *)
let test_sniff_preludes () =
  let expected = Dfg.of_alist [ ("a1", Color.add); ("b2", Color.sub) ] [ ("a1", "b2") ] in
  let bodies =
    [
      ("digraph", "digraph g {\n\"a1\" -> \"b2\";\n}\n", true);
      ("strict", "strict digraph g {\n\"a1\" -> \"b2\";\n}\n", true);
      ("node", "node a1 a\nnode b2 b\nedge a1 b2\n", false);
    ]
  in
  let preludes =
    [ ""; "\n\n"; " \t \n"; "# note\n"; "// note\n"; "\n# a\n\n  # b\n"; "\t// a\n\n// b # c\n" ]
  in
  List.iter
    (fun (what, body, dot) ->
      List.iter
        (fun prelude ->
          let text = prelude ^ body in
          let label = Printf.sprintf "%s after %S" what prelude in
          Alcotest.(check bool) label dot (Parse.is_dot text);
          Alcotest.(check bool) (label ^ ": reference") (Dfg_text_ref.is_dot text)
            (Parse.is_dot text);
          if dot || not (String.contains prelude '/') then
            Alcotest.(check bool) (label ^ ": parses") true
              (Dfg.equal expected (Parse.of_string text))
          else
            match Parse.of_string text with
            | _ -> Alcotest.failf "%s: a native text with a // line parsed" label
            | exception Parse.Parse_error _ -> ())
        preludes)
    bodies;
  List.iter
    (fun (text, dot) ->
      Alcotest.(check bool) (Printf.sprintf "%S" text) dot (Parse.is_dot text);
      Alcotest.(check bool) (Printf.sprintf "%S: reference" text)
        (Dfg_text_ref.is_dot text) (Parse.is_dot text))
    [
      ("", false); ("digraphs{", true); ("stricter", false); ("strict\r\n", false);
      ("digraph\r\n", true); ("di#graph", false); ("digraph//x", true);
      ("strict# x", true); ("a/\n/digraph", false); ("#digraph\nnode a1 a", false);
      ("// digraph\n\tstrict", true); ("\r\ndigraph", false);
    ]

(* --- the one-pass native parser against the line-splitting one --- *)

type outcome = Parsed of string | Refused of int * string | Cyclic of string list

let outcome parse text =
  match parse text with
  | g -> Parsed (Parse.to_string g)
  | exception Parse.Parse_error { line; message } -> Refused (line, message)
  | exception Dfg.Cycle names -> Cyclic names

(* The DOT subset is unchanged, so the reference reads DOT through it. *)
let reference_parse text =
  if Dfg_text_ref.is_dot text then Parse.of_string text
  else Dfg_text_ref.of_native_string text

let show = function
  | Parsed t -> Printf.sprintf "graph %S" t
  | Refused (l, m) -> Printf.sprintf "line %d: %s" l m
  | Cyclic names -> "cycle " ^ String.concat " -> " names

let test_native_pinned () =
  let pinned =
    [
      ("node a b\r", Refused (1, "color must be a single character, got \"b\\r\""));
      ("node a1 a\nedge x y", Refused (2, "unknown node \"y\" in edge"));
      ("node a1 a\nedge x a1", Refused (2, "unknown node \"x\" in edge"));
      ("node a b c", Refused (1, "unknown directive \"node\""));
      ("node a", Refused (1, "unknown directive \"node\""));
      ("\n\t# c\n  nodes a1 a", Refused (3, "unknown directive \"nodes\""));
      ("", Parsed "");
      ("node\ta1\ta # a comment\n\n node b2 b\nedge a1  b2\n",
        Parsed "node a1 a\nnode b2 b\nedge a1 b2\n");
    ]
  in
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) (Printf.sprintf "%S" text) (show want)
        (show (outcome Parse.of_string text)))
    pinned;
  List.iter
    (fun text ->
      Alcotest.(check string) (Printf.sprintf "%S: reference" text)
        (show (outcome reference_parse text))
        (show (outcome Parse.of_string text)))
    (List.map fst pinned
    @ [
        "node a1 a\nnode a1 a"; "node a1 -"; "node a1 ab"; "node a1 a\nedge a1 a1";
        "node a1 a\nnode b1 b\nedge a1 b1\nedge b1 a1"; "edge"; "node a1 a\r\n";
        "\r"; "#"; "node a1 a#\nedge a1#"; "node # a1 a"; "\n\n\n"; "node a1 a\n\n";
        "node a1 a\nnode b1 b\nedge a1 b1\nedge a1 b1\n";
      ])

(* The canonical texts of the corpus and a few small ones, with bytes
   replaced, deleted or inserted: each mutant must give the reference's
   graph, error line and message, or cycle. *)
let native_texts =
  lazy
    (Array.of_list
       (List.map (fun (_, g) -> Parse.to_string g) (Suite.graphs ~full:true ~huge:true ())
       @ [
           "node a1 a\nnode b1 b\nedge a1 b1\n";
           "# head\nnode x a\t# c\nnode y b\nnode z c\nedge x y\nedge y z\nedge x z";
         ]))

let mutation_gen =
  QCheck2.Gen.(
    pair (0 -- 24)
      (list_size (1 -- 4)
         (triple (0 -- 1_000_000) (0 -- 2)
            (oneof
               [
                 oneofl [ ' '; '\t'; '\n'; '\r'; '#'; 'a'; 'b'; 'e'; 'n'; '-'; '1'; '\000' ];
                 char;
               ]))))

let mutate text edits =
  List.fold_left
    (fun t (pos, op, c) ->
      let n = String.length t in
      if n = 0 then String.make 1 c
      else
        let i = pos mod n in
        match op with
        | 0 -> String.mapi (fun j d -> if j = i then c else d) t
        | 1 -> String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
        | _ -> String.sub t 0 i ^ String.make 1 c ^ String.sub t i (n - i))
    text edits

let native_props =
  [
    qtest ~count:400 "native: mutants = line-splitting reference" mutation_gen
      (fun (k, edits) ->
        let texts = Lazy.force native_texts in
        let text = mutate texts.(k mod Array.length texts) edits in
        let got = outcome Parse.of_string text and want = outcome reference_parse text in
        got = want
        || QCheck2.Test.fail_reportf "%S: got %s, want %s" text (show got) (show want));
  ]

(* Random texts built from the pieces the sniff reacts to. *)
let sniff_text_gen =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (0 -- 12)
         (oneofl
            [ "digraph"; "strict"; "node"; "d"; " "; "\t"; "\n"; "\r"; "#"; "/";
              "//"; "x"; "{" ])))

let sniff_props =
  [
    qtest ~count:500 "sniff: is_dot = the line-splitting reference" sniff_text_gen
      (fun text -> Parse.is_dot text = Dfg_text_ref.is_dot text);
  ]

(* --- canonical text --- *)

(* [to_string] is the canonical text every serve fingerprint digests, so
   it is pinned byte for byte against the [Printf] version it replaced. *)
let test_canonical_corpus () =
  let graphs = Suite.graphs ~full:true ~huge:true () in
  Alcotest.(check int) "corpus graphs" 23 (List.length graphs);
  let sess = Session.create () in
  List.iter
    (fun (name, g) ->
      let reference = Dfg_text_ref.to_string g in
      Alcotest.(check string) name reference (Parse.to_string g);
      Alcotest.(check string) (name ^ ": fingerprint")
        (Digest.to_hex (Digest.string reference))
        (Session.fingerprint (fst (Session.intern sess g))))
    graphs

(* A graph after a few edits drawn from [seed], each valid on the random
   DAG it starts from: an edge removed, a new sink below an existing node,
   then one original node removed. *)
let edited_graph seed =
  let g = Random_dag.generate ~seed () in
  let rs = Random.State.make [| seed |] in
  let n = Dfg.node_count g in
  let name i = Dfg.name g i in
  let drop_edge =
    match Dfg.edges g with
    | [] -> []
    | es ->
        let s, d = List.nth es (Random.State.int rs (List.length es)) in
        [ Protocol.Remove_edge (name s, name d) ]
  in
  let color = Color.to_string (Dfg.color g (Random.State.int rs n)) in
  let parent = name (Random.State.int rs n) in
  let add =
    [ Protocol.Add_node { node = "zz1"; color }; Protocol.Add_edge (parent, "zz1") ]
  in
  let drop_node =
    if n > 1 then [ Protocol.Remove_node (name (Random.State.int rs n)) ] else []
  in
  Session.apply_edits g (drop_edge @ add @ drop_node)

let canonical_props =
  [
    qtest "canonical: random DAGs = reference" dag_gen (fun g ->
        Parse.to_string g = Dfg_text_ref.to_string g);
    qtest "canonical: edited graphs = reference, fingerprint = its MD5"
      QCheck2.Gen.(0 -- 10_000)
      (fun seed ->
        let g = edited_graph seed in
        let reference = Dfg_text_ref.to_string g in
        let e, _ = Session.intern (Session.create ()) g in
        Parse.to_string g = reference
        && Session.fingerprint e = Digest.to_hex (Digest.string reference));
  ]

(* --- dot --- *)

let test_dot_output () =
  let g = Pg.fig4_small () in
  let lv = Levels.compute g in
  let dot = Dot.to_dot ~graph_name:"fig4" ~levels:lv ~highlight:[ 0 ] g in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" fragment)
        true
        (let n = String.length dot and m = String.length fragment in
         let rec go i = i + m <= n && (String.sub dot i m = fragment || go (i + 1)) in
         go 0))
    [ "digraph fig4"; "\"a1\" -> \"a2\""; "shape=box"; "fillcolor=lightgrey"; "0/0/h3" ]

(* The DOT subset of [Parse] exists to read back what [Dot.to_dot] writes:
   node statements come out in id order and names carry the color in their
   first character, so emit → re-parse must reproduce the graph exactly. *)
let dot_props =
  [
    qtest "dot: to_dot re-parses to an equal graph" dag_gen (fun g ->
        Dfg.equal g (Parse.of_string (Dot.to_dot g)));
    qtest "dot: level/highlight attributes don't disturb the round trip"
      dag_gen
      (fun g ->
        let lv = Levels.compute g in
        let dot =
          Dot.to_dot ~graph_name:"rt" ~levels:lv ~highlight:(Dfg.sources g) g
        in
        let g' = Parse.of_string dot in
        Dfg.equal g g' && Parse.to_string g = Parse.to_string g');
  ]

let () =
  Alcotest.run "dfg"
    [
      ("color", [ Alcotest.test_case "basics" `Quick test_color ]);
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "rejections" `Quick test_builder_rejects;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "snapshot semantics" `Quick test_builder_snapshot;
          Alcotest.test_case "of_alist errors" `Quick test_of_alist_errors;
          Alcotest.test_case "induced and reverse" `Quick test_induced_and_reverse;
          Alcotest.test_case "cycle below a dead end" `Quick test_cycle_below_dead_end;
        ]
        @ cycle_props );
      ( "topo",
        [
          Alcotest.test_case "order" `Quick test_topo_order;
          Alcotest.test_case "longest path" `Quick test_longest_path;
        ] );
      ( "levels",
        [
          Alcotest.test_case "small example" `Quick test_levels_small;
          Alcotest.test_case "span and theorem 1 bound" `Quick test_span_and_bound;
        ]
        @ levels_props );
      ( "reachability",
        [ Alcotest.test_case "fig2 relations" `Quick test_reachability_fig2 ]
        @ reachability_props );
      ( "parse",
        [
          Alcotest.test_case "roundtrip fig2" `Quick test_parse_roundtrip;
          Alcotest.test_case "comments and errors" `Quick test_parse_comments_and_errors;
        ]
        @ parse_props
        @ Alcotest.test_case "sniff: comment and blank lines first" `Quick
            test_sniff_preludes
          :: sniff_props
        @ Alcotest.test_case "native: pinned texts and errors" `Quick test_native_pinned
          :: native_props );
      ("dot", Alcotest.test_case "fragments" `Quick test_dot_output :: dot_props);
      ( "canonical",
        Alcotest.test_case "corpus = reference, fingerprint = its MD5" `Quick
          test_canonical_corpus
        :: canonical_props );
    ]
