module C = Core

(* What selects a pattern set on a family: Fig. 7's parameters, or the
   auto-selector's rule table, and Pdef. *)
type selection_key =
  | Eq8 of C.Select.params * int
  | Dispatch of C.Auto.rules * int

(* One classification's warm artifacts.  The universe lives inside
   [classify]; the eval context shares it, so selection fallbacks interned
   later stay valid for id-based costing.  [f_selections] keeps what
   [Pipeline.selection] answered, within [selection_cap] and
   [selection_size_cap]; [f_size] is the size it holds. *)
type family = {
  classify : C.Classify.t;
  f_eval : C.Eval.t;
  f_selections :
    (selection_key, C.Select.report * C.Auto.outcome option) Hashtbl.t;
  mutable f_size : int;
}

(* A memoized response: the command's rendered fields, and for [edit] the
   edited graph, which a hit interns again as the computation did. *)
type answer = { body : string; edited : C.Dfg.t option }

type entry = {
  e_graph : C.Dfg.t;
  e_fingerprint : string;
  e_text : string;  (* The canonical text [e_fingerprint] digests. *)
  e_escaped : string;  (* [e_text] as a JSON string spells it, unquoted. *)
  mutable e_scratch : Bytes.t;
      (* [e_escaped]'s length once a line is compared with it: the bytes
         of the line under comparison. *)
  e_seq : int;  (* Interning order: breaks ties between equal [e_used]. *)
  mutable e_used : int;  (* Request index of the last intern. *)
  mutable e_alias : C.Dfg.t option;
      (* The last other value fingerprinted to this entry, recognised by
         identity too: a built-in whose entry was made from parsed text. *)
  mutable e_plain : C.Eval.t option;
      (* Context for explicit-pattern scheduling, built without a
         universe exactly like [Multi_pattern.schedule]'s. *)
  e_families : (int * int option * int option, family) Hashtbl.t;
      (* By capacity, span limit and budget; a complete classification
         sits under budget [None], whatever budget asked for it. *)
  e_bans : (string, C.Exact.ban_entry list) Hashtbl.t;
  (* Families migrated onto this entry by [edit] instead of classified:
     the patched pattern set, whether coverage needed patching, and the
     context that schedules it — keyed by the base graph's fingerprint
     and the ban key, since the selection being migrated is the base's
     under those parameters. *)
  e_migrated : (string, C.Pattern.t list * bool * C.Eval.t) Hashtbl.t;
  mutable e_evals : C.Eval.t list;  (* Every context owned, newest first. *)
  (* The auto-selector's feature vector depends only on the graph, so it
     is cached once per fingerprint and shared by every family. *)
  mutable e_features : C.Features.t option;
  e_memo : (string, answer) Hashtbl.t;
  mutable e_memo_bytes : int;  (* Keys and bodies held in [e_memo]. *)
}

(* Graph values by physical identity, hashed on their sizes: a graph is
   immutable, so a value already interned needs no fingerprint. *)
module Same_graph = Hashtbl.Make (struct
  type t = C.Dfg.t

  let equal = ( == )
  let hash g = Hashtbl.hash (C.Dfg.node_count g, C.Dfg.edge_count g)
end)

type t = {
  s_pool : C.Pool.t option;
  max_graphs : int;
  entries : (string, entry) Hashtbl.t;  (* Live entries by fingerprint. *)
  by_graph : entry Same_graph.t;
      (* Each live entry under its [e_graph] and its [e_alias]. *)
  live : entry list ref;  (* Live entries, newest first. *)
  lookup : string -> int -> (string * int) option;
      (* The escaped-body lookup over [live], built once. *)
  mutable interned : int;  (* Entries ever created. *)
  mutable requests : int;
  mutable s_classifications : int;  (* Cold classifications ever computed. *)
  mutable evicted_cache : int * int;  (* Evicted entries' [cache_stats]. *)
  mutable totals : int * int;  (* [session_cache_stats], unless [stale]. *)
  mutable stale : bool;
      (* Set by everything that hands out an [Eval.t], since running one
         moves its counts; cleared when the totals are folded again. *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable texts_matched : int;
  mutable texts_parsed : int;
}

(* Does the line hold [e]'s escaped text from [i], closed by a quote?  A
   candidate whose closing quote is not where its length puts it is
   passed over before any byte is compared; the rest are copied into the
   entry's own buffer and compared whole, both at memcmp speed. *)
let holds e s i =
  let len = String.length e.e_escaped in
  i + len < String.length s
  && String.unsafe_get s (i + len) = '"'
  && begin
       if Bytes.length e.e_scratch <> len then e.e_scratch <- Bytes.create len;
       Bytes.blit_string s i e.e_scratch 0 len;
       String.equal (Bytes.unsafe_to_string e.e_scratch) e.e_escaped
     end

let rec find_escaped s i = function
  | [] -> None
  | e :: rest ->
      if holds e s i then Some (e.e_text, i + String.length e.e_escaped)
      else find_escaped s i rest

let create ?pool ?(max_graphs = 64) () =
  if max_graphs < 1 then invalid_arg "Session.create: max_graphs must be >= 1";
  let live = ref [] in
  {
    s_pool = pool;
    max_graphs;
    entries = Hashtbl.create 16;
    by_graph = Same_graph.create 16;
    live;
    lookup = (fun s i -> find_escaped s i !live);
    interned = 0;
    requests = 0;
    s_classifications = 0;
    evicted_cache = (0, 0);
    totals = (0, 0);
    stale = false;
    memo_hits = 0;
    memo_misses = 0;
    texts_matched = 0;
    texts_parsed = 0;
  }

let graph_count t = Hashtbl.length t.entries
let request_count t = t.requests
let note_request t = t.requests <- t.requests + 1
let classification_count t = t.s_classifications
let eviction_count t = t.interned - Hashtbl.length t.entries
let memo_stats t = (t.memo_hits, t.memo_misses)
let text_stats t = (t.texts_matched, t.texts_parsed)

let cache_stats e =
  List.fold_left
    (fun (h, m) ev ->
      let h', m' = C.Eval.cache_stats ev in
      (h + h', m + m'))
    (0, 0) e.e_evals

let session_cache_stats t =
  if t.stale then begin
    t.totals <-
      Hashtbl.fold
        (fun _ e (h, m) ->
          let h', m' = cache_stats e in
          (h + h', m + m'))
        t.entries t.evicted_cache;
    t.stale <- false
  end;
  t.totals

(* The least recently interned entry goes, by request index and then by
   interning order, so the choice is the same at any pool size; its
   eval-cache counts move into [evicted_cache], which leaves the totals as
   they are. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some v when (v.e_used, v.e_seq) < (e.e_used, e.e_seq) -> acc
        | _ -> Some e)
      t.entries None
  in
  Option.iter
    (fun e ->
      let h, m = cache_stats e and h0, m0 = t.evicted_cache in
      t.evicted_cache <- (h0 + h, m0 + m);
      Hashtbl.remove t.entries e.e_fingerprint;
      t.live := List.filter (fun x -> x != e) !(t.live);
      Same_graph.remove t.by_graph e.e_graph;
      Option.iter (Same_graph.remove t.by_graph) e.e_alias;
      C.Obs.count "serve.evictions" 1)
    victim

let use t e =
  e.e_used <- t.requests;
  (e, true)

(* The value an entry was created from, and the last other value that
   fingerprinted to it, are recognised by identity; any other value, a
   parsed copy of known text included, is fingerprinted, so the
   canonical-text digest stays the one definition of graph identity. *)
let intern t g =
  match Same_graph.find_opt t.by_graph g with
  | Some e -> use t e
  | None -> (
      let text = C.Dfg_parse.to_string g in
      let key = Digest.to_hex (Digest.string text) in
      match Hashtbl.find_opt t.entries key with
      | Some e ->
          Option.iter (Same_graph.remove t.by_graph) e.e_alias;
          e.e_alias <- Some g;
          Same_graph.replace t.by_graph g e;
          use t e
      | None ->
          if Hashtbl.length t.entries >= t.max_graphs then evict_lru t;
          let e =
            {
              e_graph = g;
              e_fingerprint = key;
              e_text = text;
              e_escaped = Mps_util.Json.escaped text;
              e_scratch = Bytes.empty;
              e_seq = t.interned;
              e_used = t.requests;
              e_alias = None;
              e_plain = None;
              e_families = Hashtbl.create 4;
              e_bans = Hashtbl.create 4;
              e_migrated = Hashtbl.create 4;
              e_evals = [];
              e_features = None;
              e_memo = Hashtbl.create 16;
              e_memo_bytes = 0;
            }
          in
          t.interned <- t.interned + 1;
          Hashtbl.replace t.entries key e;
          t.live := e :: !(t.live);
          Same_graph.replace t.by_graph g e;
          (e, false))

let lookup t = t.lookup

(* A text is an entry's own only when the lookup answered it, so identity
   finds the entry. *)
let rec owner text = function
  | [] -> None
  | e :: rest -> if e.e_text == text then Some e.e_graph else owner text rest

let known_graph t = function
  | Protocol.Builtin _ -> None
  | Protocol.Dot_text _ ->
      t.texts_parsed <- t.texts_parsed + 1;
      None
  | Protocol.Dfg_text text -> (
      match owner text !(t.live) with
      | Some _ as g ->
          t.texts_matched <- t.texts_matched + 1;
          g
      | None ->
          t.texts_parsed <- t.texts_parsed + 1;
          None)

let graph e = e.e_graph
let fingerprint e = e.e_fingerprint
let text e = e.e_text

(* ---- the response memo ---- *)

let memo_cap = 1 lsl 20
let memo_bytes e = e.e_memo_bytes

let recall t e key =
  match Hashtbl.find_opt e.e_memo key with
  | Some _ as hit ->
      t.memo_hits <- t.memo_hits + 1;
      C.Obs.count "serve.memo.hits" 1;
      hit
  | None ->
      t.memo_misses <- t.memo_misses + 1;
      C.Obs.count "serve.memo.misses" 1;
      None

(* An answer that would take the memo past its cap empties it first; one
   larger than the cap is never stored. *)
let remember e key a =
  let size = String.length key + String.length a.body in
  if size <= memo_cap then begin
    if e.e_memo_bytes + size > memo_cap then begin
      Hashtbl.reset e.e_memo;
      e.e_memo_bytes <- 0
    end;
    Hashtbl.replace e.e_memo key a;
    e.e_memo_bytes <- e.e_memo_bytes + size
  end

(* The ban-list key's classification part: exactly the parameters
   Classify.compute sees. *)
let cls_key ~capacity ~span_limit ~budget =
  Printf.sprintf "%d/%s/%s" capacity
    (match span_limit with None -> "-" | Some s -> string_of_int s)
    (match budget with None -> "-" | Some b -> string_of_int b)

(* A budgeted walk of a complete pool visits every antichain in the same
   order as the unbudgeted one, so it builds the same classification: a
   complete family serves every budget at or above its antichain count,
   and no budget at all.  A truncated one serves only its own budget. *)
let find_family e ~capacity ~span_limit ~budget =
  match
    (Hashtbl.find_opt e.e_families (capacity, span_limit, None), budget)
  with
  | Some f, None -> Some f
  | Some f, Some b when C.Classify.total_antichains f.classify <= b -> Some f
  | _, None -> None
  | _, Some _ -> Hashtbl.find_opt e.e_families (capacity, span_limit, budget)

let family t e ~capacity ~span_limit ~budget =
  t.stale <- true;
  match find_family e ~capacity ~span_limit ~budget with
  | Some f -> (f, true)
  | None ->
      t.s_classifications <- t.s_classifications + 1;
      let universe = C.Universe.create () in
      let ctx = C.Enumerate.make_ctx e.e_graph in
      let classify =
        C.Classify.compute ?pool:t.s_pool ?span_limit ?budget ~capacity
          ~universe ctx
      in
      let f_eval =
        C.Eval.make ~universe ~levels:(C.Enumerate.ctx_levels ctx)
          ~reachability:(C.Enumerate.ctx_reachability ctx) e.e_graph
      in
      let f =
        { classify; f_eval; f_selections = Hashtbl.create 8; f_size = 0 }
      in
      let budget = if C.Classify.truncated classify then budget else None in
      Hashtbl.replace e.e_families (capacity, span_limit, budget) f;
      e.e_evals <- f_eval :: e.e_evals;
      (f, false)

let family_of_options t e ~(options : C.Pipeline.options) =
  family t e ~capacity:options.C.Pipeline.capacity
    ~span_limit:options.C.Pipeline.span_limit
    ~budget:options.C.Pipeline.enumeration_budget

let classification t e ~capacity ~span_limit ~budget =
  let f, warm = family t e ~capacity ~span_limit ~budget in
  (f.classify, warm)

let plain_eval t e =
  t.stale <- true;
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

(* Warm per-graph feature vector: extracted once per fingerprint from the
   analyses of the first family context that asks. *)
let features e ev =
  match e.e_features with
  | Some fv -> fv
  | None ->
      let fv =
        C.Features.extract_with ~levels:(C.Eval.levels ev)
          ~reachability:(C.Eval.reachability ev) e.e_graph
      in
      e.e_features <- Some fv;
      fv

(* ---- one selection per Pdef ---- *)

let selection_cap = 64
let selection_size_cap = 1 lsl 14

let selections e =
  Hashtbl.fold (fun _ f n -> n + Hashtbl.length f.f_selections) e.e_families 0

(* List entries a selection holds: its patterns and, per Fig. 7 step, the
   step, its scored candidates and its deletions.  A report takes about 8
   words an entry. *)
let selection_size ((report : C.Select.report), _) =
  List.fold_left
    (fun n (st : C.Select.step) ->
      n + 1
      + List.length st.C.Select.priorities
      + List.length st.C.Select.deleted)
    (List.length report.C.Select.patterns)
    report.C.Select.steps

(* [Pipeline.selection] on the family, kept per selection key: it reads
   the classification, the strategy and Pdef, never the request's priority
   or command.  An answer that would pass either cap empties the memo
   first, and one larger than [selection_size_cap] is not kept: at a Pdef
   in the thousands, the report on 30 unconnected nodes of 10 colors (a
   pool of 2,892 patterns) has 1,902 steps and 17.9M words. *)
let selection e f ~(options : C.Pipeline.options) =
  let pdef = options.C.Pipeline.pdef in
  let key =
    match options.C.Pipeline.strategy with
    | C.Auto.Paper -> Eq8 (options.C.Pipeline.selection, pdef)
    | C.Auto.Auto rules -> Dispatch (rules, pdef)
  in
  match Hashtbl.find_opt f.f_selections key with
  | Some chosen -> chosen
  | None ->
      let features =
        match key with
        | Eq8 _ -> None
        | Dispatch _ -> Some (features e f.f_eval)
      in
      let chosen =
        C.Pipeline.selection ~options ?features ~eval:f.f_eval f.classify
      in
      let size = selection_size chosen in
      if size <= selection_size_cap then begin
        if
          Hashtbl.length f.f_selections >= selection_cap
          || f.f_size + size > selection_size_cap
        then begin
          Hashtbl.reset f.f_selections;
          f.f_size <- 0
        end;
        Hashtbl.replace f.f_selections key chosen;
        f.f_size <- f.f_size + size
      end;
      chosen

let eq8 options = { options with C.Pipeline.strategy = C.Auto.Paper }

let select_report t e ~options =
  let f, warm = family_of_options t e ~options in
  (fst (selection e f ~options:(eq8 options)), warm)

let auto_select t e ~options ~rules =
  let f, warm = family_of_options t e ~options in
  match
    selection e f
      ~options:{ options with C.Pipeline.strategy = C.Auto.Auto rules }
  with
  | _, Some outcome -> (outcome, warm)
  | _, None -> assert false (* an [Auto] strategy answers its outcome *)

let set_cycles t e ~options patterns =
  let f, _ = family_of_options t e ~options in
  C.Eval.cycles ~priority:options.C.Pipeline.priority f.f_eval patterns

let schedule t e ~options ?(trace = false) ~patterns () =
  match patterns with
  | [] ->
      let f, warm = family_of_options t e ~options in
      let pats = (fst (selection e f ~options)).C.Select.patterns in
      let r =
        C.Eval.schedule ~priority:options.C.Pipeline.priority ~trace f.f_eval
          ~patterns:pats
      in
      (pats, r, warm)
  | pats ->
      let warm = e.e_plain <> None in
      let r =
        C.Eval.schedule ~priority:options.C.Pipeline.priority ~trace
          (plain_eval t e) ~patterns:pats
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
  let r =
    C.Pipeline.run_classified ~options ?clustering ~eval:f.f_eval
      ~selection:(lazy (selection e f ~options))
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
  let heuristic =
    lazy (fst (selection e f ~options:(eq8 options))).C.Select.patterns
  in
  let cert =
    C.Pipeline.certify_classified ~options ?max_nodes ~bans:prior ~heuristic
      f.classify
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
  let key = e_base.e_fingerprint ^ "/" ^ ban_key ~options in
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
          (fst (selection e_base f ~options:(eq8 options))).C.Select.patterns
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
