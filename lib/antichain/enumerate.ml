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
   sequential loop and the domain-parallel fan-outs are built on. *)
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

let iter ?span_limit ?budget ~max_size ctx ~f =
  check_args ?span_limit ?budget ~max_size ();
  let remaining = ref (Option.value budget ~default:max_int) in
  let f ~span:_ nodes =
    if !remaining = 0 then raise Budget_exhausted;
    decr remaining;
    f (Antichain.of_nodes_unchecked nodes)
  in
  for root = 0 to Dfg.node_count ctx.graph - 1 do
    walk_root ?span_limit ~max_size ctx ~f root
  done

let iter_root ?span_limit ~max_size ctx ~f root =
  check_args ?span_limit ~max_size ();
  if root < 0 || root >= Dfg.node_count ctx.graph then
    invalid_arg "Enumerate.iter_root: root out of range";
  walk_root ?span_limit ~max_size ctx root ~f:(fun ~span:_ nodes ->
      f (Antichain.of_nodes_unchecked nodes))

(* Root subtrees are independent, so each root's (span, size) counts are
   one pool task; summing the per-root matrices in root order gives the
   same totals whatever the worker count. *)
let count_matrix ?pool ~max_size ~max_span ctx =
  check_args ~span_limit:max_span ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let root_matrix root =
    let m = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
    walk_root ~span_limit:max_span ~max_size ctx root ~f:(fun ~span nodes ->
        let s = List.length nodes in
        m.(span).(s) <- m.(span).(s) + 1);
    m
  in
  let roots = List.init (Dfg.node_count ctx.graph) Fun.id in
  let per_root =
    match pool with
    | Some pool -> Pool.map pool ~f:root_matrix roots
    | None -> List.map root_matrix roots
  in
  let exact = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  List.iter
    (Array.iteri (fun l ->
         Array.iteri (fun s c -> exact.(l).(s) <- exact.(l).(s) + c)))
    per_root;
  (* Prefix-sum over span so row l counts span <= l. *)
  let m = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  for l = 0 to max_span do
    for s = 0 to max_size do
      m.(l).(s) <- exact.(l).(s) + if l > 0 then m.(l - 1).(s) else 0
    done
  done;
  m
