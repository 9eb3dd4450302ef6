module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Bitset = Mps_util.Bitset
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs

type ctx = {
  graph : Dfg.t;
  levels : Levels.t;
  reach : Reachability.t;
}

let make_ctx graph =
  { graph; levels = Levels.compute graph; reach = Reachability.compute graph }

let ctx_graph ctx = ctx.graph
let ctx_levels ctx = ctx.levels
let ctx_reachability ctx = ctx.reach

exception Budget_exhausted

let check_args ?span_limit ?budget ~max_size () =
  if max_size < 1 then invalid_arg "Enumerate.iter: max_size must be >= 1";
  (match span_limit with
  | Some l when l < 0 -> invalid_arg "Enumerate.iter: negative span_limit"
  | _ -> ());
  match budget with
  | Some b when b < 0 -> invalid_arg "Enumerate.iter: negative budget"
  | _ -> ()

(* The span of a growing set is tracked incrementally: adding a node can only
   raise max(ASAP) and lower min(ALAP), so span never shrinks along a branch
   and a limit violation prunes the whole subtree.

   [walk_root] visits every antichain whose smallest node id is [root]: the
   root subtrees partition the enumeration, which is what both the
   sequential loop and the domain-parallel fan-out are built on. *)
let walk_root ?span_limit ~max_size ctx ~f root =
  let lv = ctx.levels in
  let within_limit span =
    match span_limit with None -> true | Some l -> span <= l
  in
  (* Span-limit subtree prunes, reported as one counter increment per root
     walk so the enumeration's pruning behaviour shows up in [--stats]
     without any per-antichain instrumentation cost.  Summed per root, the
     total is identical however the roots are spread over domains. *)
  let pruned = ref 0 in
  (* chosen is kept reversed; emitted antichains are re-reversed, hence
     increasing. *)
  let rec extend chosen size compat max_asap min_alap last ~span =
    match Bitset.first_from compat (last + 1) with
    | None -> ()
    | Some j ->
        let asap_j = Levels.asap lv j and alap_j = Levels.alap lv j in
        let max_asap' = max max_asap asap_j in
        let min_alap' = min min_alap alap_j in
        let span' = max 0 (max_asap' - min_alap') in
        if within_limit span' then begin
          let chosen' = j :: chosen in
          f ~span:span' (List.rev chosen');
          if size + 1 < max_size then begin
            let compat' = Bitset.copy compat in
            Bitset.inter_into ~dst:compat' (Reachability.parallel_set ctx.reach j);
            extend chosen' (size + 1) compat' max_asap' min_alap' j ~span:span'
          end
        end
        else incr pruned;
        (* Continue with the next candidate at this depth whether or not j
           survived the span check: a later node may have milder levels. *)
        extend chosen size compat max_asap min_alap j ~span
  in
  f ~span:0 [ root ];
  if max_size > 1 then
    extend [ root ] 1
      (Bitset.copy (Reachability.parallel_set ctx.reach root))
      (Levels.asap lv root) (Levels.alap lv root) root ~span:0;
  if !pruned > 0 then Obs.count "enumerate.pruned" !pruned

let iter_spanned ?span_limit ?budget ~max_size ctx ~f =
  check_args ?span_limit ?budget ~max_size ();
  let remaining = ref (Option.value budget ~default:max_int) in
  let f ~span nodes =
    if !remaining = 0 then raise Budget_exhausted;
    decr remaining;
    f ~span nodes
  in
  for root = 0 to Dfg.node_count ctx.graph - 1 do
    walk_root ?span_limit ~max_size ctx ~f root
  done

let iter ?span_limit ?budget ~max_size ctx ~f =
  iter_spanned ?span_limit ?budget ~max_size ctx ~f:(fun ~span:_ nodes ->
      f (Antichain.of_nodes_unchecked nodes))

let iter_root ?span_limit ~max_size ctx ~f root =
  check_args ?span_limit ~max_size ();
  if root < 0 || root >= Dfg.node_count ctx.graph then
    invalid_arg "Enumerate.iter_root: root out of range";
  walk_root ?span_limit ~max_size ctx root ~f:(fun ~span:_ nodes ->
      f (Antichain.of_nodes_unchecked nodes))

(* --- domain-parallel fan-out ----------------------------------------- *)

(* Root subtrees are independent, so each becomes one pool task; per-root
   results are merged in root order, which reproduces the sequential visit
   order exactly.  Chunk 1 everywhere: subtree sizes are wildly skewed (a
   source above a wide layer owns most of the antichains), so dynamic
   scheduling is what buys the speedup.  A [budget] is inherently
   sequential — it cuts a prefix of the visit order — so the budgeted entry
   points ({!iter}) take no pool. *)

let use_pool = function
  | Some p when Pool.jobs p > 1 -> Some p
  | _ -> None

let map_roots pool ?span_limit ~max_size ctx task =
  Pool.map pool
    ~f:(fun root -> task ?span_limit ~max_size ctx root)
    (List.init (Dfg.node_count ctx.graph) Fun.id)

let all ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  match use_pool pool with
  | Some pool ->
      let root_all ?span_limit ~max_size ctx root =
        let acc = ref [] in
        walk_root ?span_limit ~max_size ctx root ~f:(fun ~span:_ nodes ->
            acc := Antichain.of_nodes_unchecked nodes :: !acc);
        List.rev !acc
      in
      List.concat (map_roots pool ?span_limit ~max_size ctx root_all)
  | None ->
      let acc = ref [] in
      iter ?span_limit ~max_size ctx ~f:(fun a -> acc := a :: !acc);
      List.rev !acc

let count ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  match use_pool pool with
  | Some pool ->
      let root_count ?span_limit ~max_size ctx root =
        let c = ref 0 in
        walk_root ?span_limit ~max_size ctx root ~f:(fun ~span:_ _ -> incr c);
        !c
      in
      List.fold_left ( + ) 0 (map_roots pool ?span_limit ~max_size ctx root_count)
  | None ->
      let c = ref 0 in
      iter_spanned ?span_limit ~max_size ctx ~f:(fun ~span:_ _ -> incr c);
      !c

let count_by_size ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let counts = Array.make (max_size + 1) 0 in
  (match use_pool pool with
  | Some pool ->
      let root_counts ?span_limit ~max_size ctx root =
        let counts = Array.make (max_size + 1) 0 in
        walk_root ?span_limit ~max_size ctx root ~f:(fun ~span:_ nodes ->
            let s = List.length nodes in
            counts.(s) <- counts.(s) + 1);
        counts
      in
      List.iter
        (Array.iteri (fun s c -> counts.(s) <- counts.(s) + c))
        (map_roots pool ?span_limit ~max_size ctx root_counts)
  | None ->
      iter_spanned ?span_limit ~max_size ctx ~f:(fun ~span:_ nodes ->
          let s = List.length nodes in
          counts.(s) <- counts.(s) + 1));
  counts

let count_matrix ?pool ~max_size ~max_span ctx =
  check_args ~span_limit:max_span ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let exact = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  (match use_pool pool with
  | Some pool ->
      let root_matrix ?span_limit ~max_size ctx root =
        let span_limit = Option.value span_limit ~default:max_span in
        let m = Array.make_matrix (span_limit + 1) (max_size + 1) 0 in
        walk_root ~span_limit ~max_size ctx root ~f:(fun ~span nodes ->
            let s = List.length nodes in
            m.(span).(s) <- m.(span).(s) + 1);
        m
      in
      List.iter
        (Array.iteri (fun l ->
             Array.iteri (fun s c -> exact.(l).(s) <- exact.(l).(s) + c)))
        (map_roots pool ~span_limit:max_span ~max_size ctx root_matrix)
  | None ->
      iter_spanned ~span_limit:max_span ~max_size ctx ~f:(fun ~span nodes ->
          let s = List.length nodes in
          exact.(span).(s) <- exact.(span).(s) + 1));
  (* Prefix-sum over span so row l counts span <= l. *)
  let m = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  for l = 0 to max_span do
    for s = 0 to max_size do
      m.(l).(s) <- exact.(l).(s) + if l > 0 then m.(l - 1).(s) else 0
    done
  done;
  m
