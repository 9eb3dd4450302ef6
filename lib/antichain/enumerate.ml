module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Bitset = Mps_util.Bitset
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs

let word_bits = Bitset.word_bits

(* Node sets are bare word arrays ([Bitset.to_words]), all of [words]
   words, so the walk can intersect and scan them without bounds checks
   on a universe or any allocation. *)
type ctx = {
  graph : Dfg.t;
  levels : Levels.t;
  reach : Reachability.t;
  words : int;
  par : int array array; (* par.(i): the nodes parallelizable with i *)
  asap : int array;
  alap : int array;
  top : int; (* ASAPmax: every level lies in [0, top] *)
  asap_le : int array array; (* asap_le.(k): the nodes with ASAP <= k *)
  alap_ge : int array array; (* alap_ge.(k): the nodes with ALAP >= k *)
  color_index : int array;
  colors : Color.t array;
}

let make_ctx graph =
  let levels = Levels.compute graph and reach = Reachability.compute graph in
  let n = Dfg.node_count graph in
  let top = Levels.asap_max levels in
  let asap = Array.init n (Levels.asap levels) in
  let alap = Array.init n (Levels.alap levels) in
  (* sets.(k): the nodes whose [level] is at most k ([below]) or at least
     k. *)
  let cumulative level ~below =
    let sets = Array.init (top + 1) (fun _ -> Bitset.create n) in
    Array.iteri (fun i k -> Bitset.add sets.(k) i) level;
    if below then
      for k = 1 to top do
        Bitset.union_into ~dst:sets.(k) sets.(k - 1)
      done
    else
      for k = top - 1 downto 0 do
        Bitset.union_into ~dst:sets.(k) sets.(k + 1)
      done;
    Array.map Bitset.to_words sets
  in
  let colors = Dfg.colors graph in
  let index = Color.Map.of_seq (Seq.mapi (fun k c -> (c, k)) (List.to_seq colors)) in
  {
    graph;
    levels;
    reach;
    words = (n + word_bits - 1) / word_bits;
    par =
      Array.init n (fun i -> Bitset.to_words (Reachability.parallel_set reach i));
    asap;
    alap;
    top;
    asap_le = cumulative asap ~below:true;
    alap_ge = cumulative alap ~below:false;
    color_index = Array.init n (fun i -> Color.Map.find (Dfg.color graph i) index);
    colors = Array.of_list colors;
  }

let ctx_graph ctx = ctx.graph
let ctx_levels ctx = ctx.levels
let ctx_reachability ctx = ctx.reach
let ctx_colors ctx = ctx.colors
let ctx_color_index ctx = ctx.color_index

exception Budget_exhausted

type walk = {
  ctx : ctx;
  max_size : int;
  limit : int; (* the span limit; -1 when there is none *)
  nodes : int array; (* the chosen nodes, root first *)
  compat : int array array; (* compat.(d): the candidates parallel to nodes.(0..d) *)
  leaf_set : int array; (* the admissible last level of the current prefix *)
  mutable remaining : int; (* budget left *)
  mutable pruned : int; (* span-limit prunes in the current root *)
}

type sink = {
  visit : int -> int -> unit;
  leaves : (int -> int array -> unit) option;
}

let check_args ?span_limit ?budget ~max_size () =
  if max_size < 1 then invalid_arg "Enumerate.iter: max_size must be >= 1";
  (match span_limit with
  | Some l when l < 0 -> invalid_arg "Enumerate.iter: negative span_limit"
  | _ -> ());
  match budget with
  | Some b when b < 0 -> invalid_arg "Enumerate.iter: negative budget"
  | _ -> ()

let make_walk ?span_limit ?budget ~max_size ctx =
  check_args ?span_limit ?budget ~max_size ();
  (* No antichain outgrows the graph, so neither do the buffers. *)
  let depth = min max_size (Array.length ctx.par) in
  {
    ctx;
    max_size;
    limit = Option.value span_limit ~default:(-1);
    nodes = Array.make depth 0;
    compat = Array.init depth (fun _ -> Array.make ctx.words 0);
    leaf_set = Array.make ctx.words 0;
    remaining = Option.value budget ~default:max_int;
    pruned = 0;
  }

let nodes w = w.nodes

let visit w sink depth span =
  if w.remaining = 0 then raise Budget_exhausted;
  w.remaining <- w.remaining - 1;
  sink.visit depth span

(* Candidates to extend [nodes.(0..depth)] are the members of
   [compat.(depth)] above [nodes.(depth)]: words from [first_word] on, the
   first one masked by [candidates].  Lower words are stale. *)
let first_word w depth = (w.nodes.(depth) + 1) / word_bits

let candidates w depth wi =
  let start = w.nodes.(depth) + 1 in
  let c = w.compat.(depth).(wi) in
  if wi = start / word_bits then c land (-1 lsl (start mod word_bits)) else c

(* The last level in bulk.  A node j completes the prefix within the span
   limit l iff ASAP j <= lo + l and ALAP j >= hi - l (ASAP <= ALAP holds
   for every node), so the admissible leaves are one intersection with two
   precomputed level masks.  Fills [leaf_set] with them and takes them off
   the budget, unless fewer antichains remain in the budget than there are
   leaves: then it returns false and they are visited one by one, so the
   budget cuts exactly where it would. *)
let last_level w depth hi lo =
  let ctx = w.ctx and leaves = w.leaf_set in
  let l = w.limit in
  let le = ctx.asap_le.(if l < 0 || l >= ctx.top - lo then ctx.top else lo + l) in
  let ge = ctx.alap_ge.(if l < 0 || hi <= l then 0 else hi - l) in
  let first = first_word w depth in
  Array.fill leaves 0 (min first ctx.words) 0;
  let seen = ref 0 and admissible = ref 0 in
  for wi = first to ctx.words - 1 do
    let c = candidates w depth wi in
    let a = c land le.(wi) land ge.(wi) in
    leaves.(wi) <- a;
    seen := !seen + Bitset.popcount c;
    admissible := !admissible + Bitset.popcount a
  done;
  !admissible <= w.remaining
  && begin
       w.remaining <- w.remaining - !admissible;
       w.pruned <- w.pruned + !seen - !admissible;
       true
     end

(* The span of a growing set is tracked incrementally as [hi] (max ASAP)
   and [lo] (min ALAP): adding a node can only raise [hi] and lower [lo],
   so span never shrinks along a branch and a limit violation prunes the
   whole subtree.  A pruned candidate does not end the scan, though: a
   later node may have milder levels.

   [extend] visits every extension of the chosen [nodes.(0..depth)],
   depth first in increasing id order. *)
let rec extend w sink depth hi lo =
  match sink.leaves with
  | Some bulk when depth + 2 = w.max_size && last_level w depth hi lo ->
      bulk depth w.leaf_set
  | _ ->
      let ctx = w.ctx in
      for wi = first_word w depth to ctx.words - 1 do
        let word = ref (candidates w depth wi) in
        while !word <> 0 do
          let j = (wi * word_bits) + Bitset.lowest_bit !word in
          word := !word land (!word - 1);
          let hi' = if ctx.asap.(j) > hi then ctx.asap.(j) else hi in
          let lo' = if ctx.alap.(j) < lo then ctx.alap.(j) else lo in
          let span = if hi' > lo' then hi' - lo' else 0 in
          if w.limit < 0 || span <= w.limit then begin
            w.nodes.(depth + 1) <- j;
            visit w sink (depth + 1) span;
            if depth + 2 < w.max_size then begin
              let compat = w.compat.(depth) and next = w.compat.(depth + 1) in
              let par = ctx.par.(j) in
              for i = first_word w (depth + 1) to ctx.words - 1 do
                next.(i) <- compat.(i) land par.(i)
              done;
              extend w sink (depth + 1) hi' lo'
            end
          end
          else w.pruned <- w.pruned + 1
        done
      done

let walk_root w sink root =
  let ctx = w.ctx in
  (* Span-limit subtree prunes, reported as one counter increment per root
     walk so the enumeration's pruning behaviour shows up in [--stats]
     without any per-antichain instrumentation cost.  Summed per root, the
     total is identical however the roots are spread over domains. *)
  w.pruned <- 0;
  w.nodes.(0) <- root;
  visit w sink 0 0;
  if w.max_size > 1 then begin
    Array.blit ctx.par.(root) 0 w.compat.(0) 0 ctx.words;
    extend w sink 0 ctx.asap.(root) ctx.alap.(root)
  end;
  if w.pruned > 0 then Obs.count "enumerate.pruned" w.pruned

let iter ?span_limit ?budget ~max_size ctx ~f =
  let w = make_walk ?span_limit ?budget ~max_size ctx in
  let visit depth _ =
    f (Antichain.of_nodes_unchecked (List.init (depth + 1) (Array.get w.nodes)))
  in
  let sink = { visit; leaves = None } in
  for root = 0 to Array.length ctx.par - 1 do
    walk_root w sink root
  done

(* Root subtrees are independent, so each root's (span, size) counts are
   one pool task; summing the per-root matrices in root order gives the
   same totals whatever the worker count. *)
let count_matrix ?pool ~max_size ~max_span ctx =
  check_args ~span_limit:max_span ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let root_matrix root =
    let m = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
    let visit depth span = m.(span).(depth + 1) <- m.(span).(depth + 1) + 1 in
    let w = make_walk ~span_limit:max_span ~max_size ctx in
    walk_root w { visit; leaves = None } root;
    m
  in
  let roots = List.init (Array.length ctx.par) Fun.id in
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
