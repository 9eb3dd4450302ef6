module C = Core

(* One classification parameter set's warm artifacts.  The universe lives
   inside [classify]; the eval context shares it, so selection fallbacks
   interned later stay valid for id-based costing. *)
type family = { classify : C.Classify.t; f_eval : C.Eval.t }

type entry = {
  e_graph : C.Dfg.t;
  e_fingerprint : string;
  mutable e_plain : C.Eval.t option;
      (* Context for explicit-pattern scheduling, built without a
         universe exactly like [Multi_pattern.schedule]'s. *)
  e_families : (string, family) Hashtbl.t;
  e_bans : (string, C.Exact.ban_entry list) Hashtbl.t;
  (* Families migrated onto this entry by [edit] instead of classified:
     the patched pattern set, whether coverage needed patching, and the
     context that schedules it — keyed like ban lists (classification
     parameters + pdef + priority decide the selection being migrated). *)
  e_migrated : (string, C.Pattern.t list * bool * C.Eval.t) Hashtbl.t;
  mutable e_evals : C.Eval.t list;  (* Every context owned, newest first. *)
  (* The auto-selector's feature vector depends only on the graph, so it
     is cached once per fingerprint and shared by every family. *)
  mutable e_features : C.Features.t option;
}

type t = {
  s_pool : C.Pool.t option;
  entries : (string, entry) Hashtbl.t;
  mutable entry_list : entry list;  (* Interning order, newest first. *)
  mutable requests : int;
  mutable s_classifications : int;  (* Cold classifications ever computed. *)
}

let create ?pool () =
  {
    s_pool = pool;
    entries = Hashtbl.create 16;
    entry_list = [];
    requests = 0;
    s_classifications = 0;
  }

let graph_count t = List.length t.entry_list
let request_count t = t.requests
let note_request t = t.requests <- t.requests + 1
let classification_count t = t.s_classifications

let intern t g =
  let key = Digest.to_hex (Digest.string (C.Dfg_parse.to_string g)) in
  match Hashtbl.find_opt t.entries key with
  | Some e -> (e, true)
  | None ->
      let e =
        {
          e_graph = g;
          e_fingerprint = key;
          e_plain = None;
          e_families = Hashtbl.create 4;
          e_bans = Hashtbl.create 4;
          e_migrated = Hashtbl.create 4;
          e_evals = [];
          e_features = None;
        }
      in
      Hashtbl.replace t.entries key e;
      t.entry_list <- e :: t.entry_list;
      (e, false)

let graph e = e.e_graph
let fingerprint e = e.e_fingerprint

let cache_stats e =
  List.fold_left
    (fun (h, m) ev ->
      let h', m' = C.Eval.cache_stats ev in
      (h + h', m + m'))
    (0, 0) e.e_evals

let session_cache_stats t =
  List.fold_left
    (fun (h, m) e ->
      let h', m' = cache_stats e in
      (h + h', m + m'))
    (0, 0) t.entry_list

(* Classification cache key: exactly the parameters Classify.compute sees.
   Selection parameters are deliberately not part of it — selection is
   cheap and runs per request on the cached classification. *)
let cls_key ~capacity ~span_limit ~budget =
  Printf.sprintf "%d/%s/%s" capacity
    (match span_limit with None -> "-" | Some s -> string_of_int s)
    (match budget with None -> "-" | Some b -> string_of_int b)

let family t e ~capacity ~span_limit ~budget =
  let key = cls_key ~capacity ~span_limit ~budget in
  match Hashtbl.find_opt e.e_families key with
  | Some f -> (f, true)
  | None ->
      t.s_classifications <- t.s_classifications + 1;
      let universe = C.Universe.create () in
      let ctx = C.Enumerate.make_ctx e.e_graph in
      let classify =
        C.Classify.compute ?pool:t.s_pool ?span_limit ?budget ~capacity
          ~universe ctx
      in
      let f_eval = C.Eval.make ~universe e.e_graph in
      let f = { classify; f_eval } in
      Hashtbl.replace e.e_families key f;
      e.e_evals <- f_eval :: e.e_evals;
      (f, false)

let family_of_options t e ~(options : C.Pipeline.options) =
  family t e ~capacity:options.C.Pipeline.capacity
    ~span_limit:options.C.Pipeline.span_limit
    ~budget:options.C.Pipeline.enumeration_budget

let classification t e ~capacity ~span_limit ~budget =
  let f, warm = family t e ~capacity ~span_limit ~budget in
  (f.classify, warm)

let plain_eval e =
  match e.e_plain with
  | Some ev -> ev
  | None ->
      let ev = C.Eval.make e.e_graph in
      e.e_plain <- Some ev;
      e.e_evals <- ev :: e.e_evals;
      ev

(* The exact backend's ban entries are facts only relative to the
   canonical costing order, which the classification parameters, pdef and
   the pattern priority jointly induce — so that tuple is the persistence
   key (see Exact.search's contract). *)
let ban_key ~(options : C.Pipeline.options) =
  Printf.sprintf "%s/%d/%s"
    (cls_key ~capacity:options.C.Pipeline.capacity
       ~span_limit:options.C.Pipeline.span_limit
       ~budget:options.C.Pipeline.enumeration_budget)
    options.C.Pipeline.pdef
    (match options.C.Pipeline.priority with
    | C.Multi_pattern.F1 -> "f1"
    | C.Multi_pattern.F2 -> "f2")

let prior_bans e key =
  Option.value (Hashtbl.find_opt e.e_bans key) ~default:[]

let select_report t e ~options =
  let f, warm = family_of_options t e ~options in
  ( C.Select.select_report ~params:options.C.Pipeline.selection
      ~pdef:options.C.Pipeline.pdef f.classify,
    warm )

(* Warm per-graph feature vector: extracted once per fingerprint,
   reusing a family context's analyses when a family already exists. *)
let features e ~eval =
  match e.e_features with
  | Some fv -> fv
  | None ->
      let fv =
        match eval with
        | Some ev ->
            C.Features.extract_with ~levels:(C.Eval.levels ev)
              ~reachability:(C.Eval.reachability ev) e.e_graph
        | None -> C.Features.extract e.e_graph
      in
      e.e_features <- Some fv;
      fv

let auto_select t e ~options ~rules =
  let f, warm = family_of_options t e ~options in
  let fv = features e ~eval:(Some f.f_eval) in
  ( C.Auto.select ~rules ~features:fv ~eval:f.f_eval
      ~pdef:options.C.Pipeline.pdef f.classify,
    warm )

let set_cycles t e ~options patterns =
  let f, _ = family_of_options t e ~options in
  C.Eval.cycles ~priority:options.C.Pipeline.priority f.f_eval patterns

let schedule t e ~options ?(trace = false) ~patterns () =
  match patterns with
  | [] ->
      let f, warm = family_of_options t e ~options in
      let pats =
        match options.C.Pipeline.strategy with
        | C.Auto.Paper ->
            C.Select.select ~params:options.C.Pipeline.selection
              ~pdef:options.C.Pipeline.pdef f.classify
        | C.Auto.Auto rules ->
            let outcome, _ = auto_select t e ~options ~rules in
            outcome.C.Auto.patterns
      in
      let r =
        C.Eval.schedule ~priority:options.C.Pipeline.priority ~trace f.f_eval
          ~patterns:pats
      in
      (pats, r, warm)
  | pats ->
      let warm = e.e_plain <> None in
      let r =
        C.Eval.schedule ~priority:options.C.Pipeline.priority ~trace
          (plain_eval e) ~patterns:pats
      in
      (pats, r, warm)

let pipeline t dfg ~options =
  let clustering =
    if options.C.Pipeline.cluster then
      Some (C.Obs.span "cluster" (fun () -> C.Cluster.mac dfg))
    else None
  in
  let graph =
    match clustering with Some c -> c.C.Cluster.clustered | None -> dfg
  in
  let e, _ = intern t graph in
  let f, warm = family_of_options t e ~options in
  let fv =
    match options.C.Pipeline.strategy with
    | C.Auto.Paper -> None
    | C.Auto.Auto _ -> Some (features e ~eval:(Some f.f_eval))
  in
  let r =
    C.Pipeline.run_classified ~options ?clustering ~eval:f.f_eval ?features:fv
      f.classify
  in
  (r, warm)

let portfolio t e ~options =
  let f, warm = family_of_options t e ~options in
  ( C.Portfolio.run ?pool:t.s_pool ~pdef:options.C.Pipeline.pdef f.classify,
    warm )

let exact t e ~options ?pruning ?max_nodes () =
  let f, warm = family_of_options t e ~options in
  let key = ban_key ~options in
  let prior = prior_bans e key in
  let ct =
    C.Exact.search ~priority:options.C.Pipeline.priority ?pruning ?max_nodes
      ~bans:prior ~pdef:options.C.Pipeline.pdef f.classify
  in
  Hashtbl.replace e.e_bans key (prior @ ct.C.Exact.bans);
  (ct, warm)

let certify t dfg ~options ?max_nodes () =
  let graph =
    if options.C.Pipeline.cluster then (C.Cluster.mac dfg).C.Cluster.clustered
    else dfg
  in
  let e, _ = intern t graph in
  let f, warm = family_of_options t e ~options in
  let key = ban_key ~options in
  let prior = prior_bans e key in
  let cert =
    C.Pipeline.certify_classified ~options ?max_nodes ~bans:prior f.classify
  in
  Hashtbl.replace e.e_bans key (prior @ cert.C.Pipeline.exact.C.Exact.bans);
  (cert, warm)

(* ---- online rescheduling ---- *)

(* Name-based graph surgery: rebuild through [Dfg.of_alist] so node ids are
   reassigned canonically (list order) and cycles are rejected at build
   time.  Every precondition failure is a [Failure] with the offending
   name, which the server reports as a normal request error. *)
let apply_edits g edits =
  let nodes0 =
    List.map (fun i -> (C.Dfg.name g i, C.Dfg.color g i)) (C.Dfg.nodes g)
  in
  let edges0 =
    List.map (fun (a, b) -> (C.Dfg.name g a, C.Dfg.name g b)) (C.Dfg.edges g)
  in
  let has_node nodes n = List.exists (fun (m, _) -> String.equal m n) nodes in
  let has_edge edges a b =
    List.exists (fun (x, y) -> String.equal x a && String.equal y b) edges
  in
  let apply (nodes, edges) = function
    | Protocol.Add_node { node; color } ->
        if has_node nodes node then
          failwith (Printf.sprintf "edit: node %S already exists" node);
        if String.length color <> 1 then
          failwith
            (Printf.sprintf "edit: color %S must be a single character" color);
        (nodes @ [ (node, C.Color.of_char color.[0]) ], edges)
    | Protocol.Remove_node n ->
        if not (has_node nodes n) then
          failwith (Printf.sprintf "edit: unknown node %S" n);
        ( List.filter (fun (m, _) -> not (String.equal m n)) nodes,
          List.filter
            (fun (a, b) -> not (String.equal a n || String.equal b n))
            edges )
    | Protocol.Add_edge (a, b) ->
        if not (has_node nodes a) then
          failwith (Printf.sprintf "edit: unknown node %S" a);
        if not (has_node nodes b) then
          failwith (Printf.sprintf "edit: unknown node %S" b);
        if String.equal a b then
          failwith (Printf.sprintf "edit: self-edge on %S" a);
        if has_edge edges a b then
          failwith (Printf.sprintf "edit: edge %s -> %s already exists" a b);
        (nodes, edges @ [ (a, b) ])
    | Protocol.Remove_edge (a, b) ->
        if not (has_edge edges a b) then
          failwith (Printf.sprintf "edit: no edge %s -> %s" a b);
        ( nodes,
          List.filter
            (fun (x, y) -> not (String.equal x a && String.equal y b))
            edges )
  in
  let nodes, edges = List.fold_left apply (nodes0, edges0) edits in
  if nodes = [] then failwith "edit: the edited graph has no nodes";
  C.Dfg.of_alist nodes edges

let edit t dfg ~options ~edits =
  let e_base, _ = intern t dfg in
  let f, warm = family_of_options t e_base ~options in
  let g' = apply_edits dfg edits in
  let e', _ = intern t g' in
  let key = ban_key ~options in
  let pats, patched, ev =
    match Hashtbl.find_opt e'.e_migrated key with
    | Some m -> m
    | None ->
        (* Migrate the base family instead of re-classifying the edited
           graph: the selection computed on the cached base classification
           carries over, and colors the edit introduced (or uncovered) are
           patched with fabricated patterns — the same shape as Fig. 7's
           coverage fallback, capacity colors at a time. *)
        let selected =
          C.Select.select ~params:options.C.Pipeline.selection
            ~pdef:options.C.Pipeline.pdef f.classify
        in
        let covered =
          List.fold_left
            (fun acc p -> C.Color.Set.union acc (C.Pattern.color_set p))
            C.Color.Set.empty selected
        in
        let missing =
          List.filter
            (fun c -> not (C.Color.Set.mem c covered))
            (C.Dfg.colors g')
        in
        let fabricated =
          List.map C.Pattern.of_colors
            (C.Listx.chunks options.C.Pipeline.capacity missing)
        in
        let pats = selected @ fabricated in
        let ev = C.Eval.make g' in
        e'.e_evals <- ev :: e'.e_evals;
        let m = (pats, fabricated <> [], ev) in
        Hashtbl.replace e'.e_migrated key m;
        m
  in
  let result =
    C.Eval.schedule ~priority:options.C.Pipeline.priority ev ~patterns:pats
  in
  (e', pats, patched, result, warm)
