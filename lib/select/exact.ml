(* Exact pattern selection by certifying branch-and-bound over the
   classified pool.  See exact.mli for the contract and DESIGN.md §11 for
   the soundness argument behind each prune.

   Cost canonicalization: a set is always costed in its canonical chosen
   order — pool patterns in canonical (index) order, the fabricated
   fallback last — and a fabricated completion that coincides with a pool
   pattern is skipped as a non-canonical duplicate of the pool-only set
   evaluated elsewhere in the tree.  The list scheduler breaks score ties
   by list position, so without this rule the same multiset could cost
   differently depending on which branch reached it first; with it, the
   cost of a set is well-defined and the minimum over the family is the
   same for every traversal order and for the exhaustive oracle (which
   applies the same rule). *)

module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Obs = Mps_obs.Obs
module Bitset = Mps_util.Bitset

type pruning = {
  prune_span : bool;
  prune_color : bool;
  prune_ban : bool;
  prune_dominance : bool;
}

let all_pruning =
  { prune_span = true; prune_color = true; prune_ban = true; prune_dominance = true }

let no_pruning =
  { prune_span = false; prune_color = false; prune_ban = false; prune_dominance = false }

type bound = Infeasible | Cost of int | At_least of int

type ban_entry = { banned : Pattern.t list; bound : bound }

type stats = {
  nodes_visited : int;
  pruned_span : int;
  pruned_color : int;
  pruned_ban : int;
  pruned_dominance : int;
  evaluated : int;
}

type certificate = {
  optimal : Pattern.t list;
  optimal_cycles : int;
  stats : stats;
  bans : ban_entry list;
  proven : bool;
}

(* The canonical candidate order: descending size, spelling to break ties.
   A proper subpattern is strictly smaller, so this is a linear extension
   of the proper-subpattern lattice — every dominator precedes every
   pattern it dominates.  That is what makes the dominance prune complete:
   whenever a set contains a comparable pair, the dominator is chosen
   first and the subpattern is cut as a candidate. *)
let pool_order p q =
  let c = compare (Pattern.size q) (Pattern.size p) in
  if c <> 0 then c else Pattern.compare p q

(* The canonical costing order: pool members in canonical pool order,
   foreign patterns last by spelling.  [index] maps a pattern to its pool
   position, [None] for foreigners. *)
let order_by index set =
  List.map
    (fun p ->
      match index p with
      | Some i -> ((0, i, ""), p)
      | None -> ((1, 0, Pattern.to_string p), p))
    set
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let canonical_order classify set =
  let pool = Array.of_list (Classify.patterns classify) in
  Array.sort pool_order pool;
  let h = Hashtbl.create (2 * Array.length pool) in
  Array.iteri (fun i p -> Hashtbl.replace h (Pattern.to_string p) i) pool;
  order_by (fun p -> Hashtbl.find_opt h (Pattern.to_string p)) set

(* --- the covering bound ------------------------------------------------- *)

(* Work buffers of the covering decision: up to [max_rows] pattern rows
   of [nc] per-color multiplicities, row [r] at [r * nc].  [resid] holds
   the residual demand per depth of the search over rows, [smax] and
   [ssize] the per-color and per-size maxima of rows [r..], all in the
   same layout, so a decision allocates nothing. *)
type cover = {
  nc : int;
  rows : int array;
  smax : int array;
  ssize : int array;
  resid : int array;
}

let make_cover ~ncolors ~max_rows =
  let cells = (max_rows + 1) * ncolors in
  {
    nc = ncolors;
    rows = Array.make cells 0;
    smax = Array.make cells 0;
    ssize = Array.make (max_rows + 1) 0;
    resid = Array.make cells 0;
  }

(* A lower bound on Σ x_q over rows [r..] for the residual demand at depth
   [r]: per color against the best remaining multiplicity, and the total
   against the largest remaining row.  [max_int] when a color still in
   demand is in no remaining row, 0 when nothing is left. *)
let cover_need cv r =
  let base = r * cv.nc in
  let lb = ref 0 and total = ref 0 in
  for c = 0 to cv.nc - 1 do
    let d = cv.resid.(base + c) in
    if d > 0 then begin
      total := !total + d;
      let m = cv.smax.(base + c) in
      if m = 0 then lb := max_int
      else if !lb < max_int then lb := max !lb ((d + m - 1) / m)
    end
  done;
  if !lb = max_int || !total = 0 then !lb
  else max !lb ((!total + cv.ssize.(r) - 1) / cv.ssize.(r))

(* Depth-first over x_r, largest first, between bounds from what the rows
   after [r] can supply in [budget − x_r] cycles at most: x_r need not
   exceed what row [r] alone would take to meet its colors; it must reach
   what those rows fall short of on a color, or in slots, that row [r]
   has more of; and it must leave them the cycles a color row [r] lacks
   needs.  On the last row the bound is exact. *)
let rec cover_from cv nrows r budget =
  let need = cover_need cv r in
  if need > budget then false
  else if need = 0 || r = nrows - 1 then true
  else begin
    let nc = cv.nc in
    let base = r * nc and next = (r + 1) * nc in
    let lo = ref 0 and hi = ref 0 and cap = ref budget in
    let total = ref 0 and size = ref 0 in
    for c = 0 to nc - 1 do
      let d = cv.resid.(base + c) and m = cv.rows.(base + c) in
      size := !size + m;
      if d > 0 then begin
        total := !total + d;
        let rest = cv.smax.(next + c) in
        if m > 0 then hi := max !hi ((d + m - 1) / m);
        if m > rest then begin
          let short = d - (budget * rest) in
          if short > 0 then lo := max !lo ((short + m - rest - 1) / (m - rest))
        end
        else if m = 0 then cap := min !cap (budget - ((d + rest - 1) / rest))
      end
    done;
    let rest = cv.ssize.(r + 1) in
    if !size > rest then begin
      let short = !total - (budget * rest) in
      if short > 0 then lo := max !lo ((short + !size - rest - 1) / (!size - rest))
    end;
    let x = ref (min !hi !cap) and found = ref false in
    while (not !found) && !x >= !lo do
      for c = 0 to nc - 1 do
        cv.resid.(next + c) <- cv.resid.(base + c) - (!x * cv.rows.(base + c))
      done;
      if cover_from cv nrows (r + 1) (budget - !x) then found := true
      else decr x
    done;
    !found
  end

(* Rows [0..nrows-1] and the demand at depth 0 are filled in.  A budget
   past the total demand decides like the total demand (one row per
   demanded color, one cycle per node, is then a solution if any is),
   which keeps every product in [cover_from] small. *)
let cover_decide cv nrows budget =
  let nc = cv.nc in
  let demand = ref 0 in
  for c = 0 to nc - 1 do
    demand := !demand + max 0 cv.resid.(c)
  done;
  let budget = min budget !demand in
  Array.fill cv.smax (nrows * nc) nc 0;
  cv.ssize.(nrows) <- 0;
  for r = nrows - 1 downto 0 do
    let size = ref 0 in
    for c = 0 to nc - 1 do
      let m = cv.rows.((r * nc) + c) in
      size := !size + m;
      cv.smax.((r * nc) + c) <- max m cv.smax.(((r + 1) * nc) + c)
    done;
    cv.ssize.(r) <- max !size cv.ssize.(r + 1)
  done;
  budget >= 0 && cover_from cv nrows 0 budget

let coverable rows counts cycles =
  let nc = Array.length counts and nrows = Array.length rows in
  Array.iter
    (fun row ->
      if Array.length row <> nc then
        invalid_arg "Exact.coverable: a row's length differs from counts'")
    rows;
  let cv = make_cover ~ncolors:nc ~max_rows:nrows in
  Array.iteri (fun r row -> Array.blit row 0 cv.rows (r * nc) nc) rows;
  Array.blit counts 0 cv.resid 0 nc;
  cover_decide cv nrows cycles

(* --- the search --------------------------------------------------------- *)

let search ?priority ?(pruning = all_pruning) ?(max_nodes = 1_000_000)
    ?(seeds = []) ?(bans = []) ~pdef classify =
  Obs.span "exact" @@ fun () ->
  if pdef < 1 then invalid_arg "Exact.search: pdef must be >= 1";
  if max_nodes < 1 then invalid_arg "Exact.search: max_nodes must be >= 1";
  let g = Classify.graph classify in
  let capacity = Classify.capacity classify in
  let u = Classify.universe classify in
  let ids = Array.of_list (Classify.ids classify) in
  Array.sort (fun i j -> pool_order (Universe.pattern u i) (Universe.pattern u j)) ids;
  let np = Array.length ids in
  let pats = Array.map (Universe.pattern u) ids in
  let sizes = Array.map Pattern.size pats in
  (* Colors are dense indices into the sorted graph colors, and a set of
     colors is an int mask over them. *)
  let color_counts = Array.of_list (Dfg.color_counts g) in
  let colors_arr = Array.map fst color_counts in
  let node_count_by_color = Array.map snd color_counts in
  let nc = Array.length colors_arr in
  if nc > Sys.int_size then
    invalid_arg
      (Printf.sprintf
         "Exact.search: the graph has %d colors, at most %d are supported" nc
         Sys.int_size);
  let all_mask = if nc = Sys.int_size then -1 else (1 lsl nc) - 1 in
  let n_nodes = Dfg.node_count g in
  (* Per-color multiplicities of pool pattern [i], at [i * nc]. *)
  let pmult = Array.make (np * nc) 0 in
  let cmask = Array.make np 0 in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun c col ->
          let m = Pattern.count p col in
          pmult.((i * nc) + c) <- m;
          if m > 0 then cmask.(i) <- cmask.(i) lor (1 lsl c))
        colors_arr)
    pats;
  (* Every pattern the search meets is interned in a private universe: the
     pool first, in pool order, so a pool pattern's id is its index, then
     foreign patterns (fabrications, seed and prior members outside the
     pool) from [np] up as they are met.  A set is a list of ids in its
     canonical costing order, which the evaluation context costs as is;
     its ban key is the same ids sorted. *)
  let xu = Universe.create ~expected:(2 * np) () in
  Array.iter (fun p -> ignore (Universe.intern xu p)) pats;
  let pool_index p =
    match Universe.find xu p with
    | Some id when Pattern.Id.to_int id < np -> Some (Pattern.Id.to_int id)
    | _ -> None
  in
  let key_of_ids ids = List.sort Pattern.Id.compare ids in
  (* [subs j]: the pool patterns [j] properly dominates, all after [j] in
     pool order (pool patterns are distinct, so dominance is proper).  A
     row is built the first time the search pushes [j], so a pattern
     pruned before it is ever pushed costs no dominance tests. *)
  let rows = Array.make np None in
  let subs j =
    match rows.(j) with
    | Some row -> row
    | None ->
        let row = Bitset.create np in
        for i = j + 1 to np - 1 do
          if Pattern.subpattern pats.(i) ~of_:pats.(j) then Bitset.add row i
        done;
        rows.(j) <- Some row;
        row
  in
  (* Suffix aggregates over the candidate order: what patterns i.. can
     still contribute in colors, size, and per-color multiplicity. *)
  let suffix_mask = Array.make (np + 1) 0 in
  let suffix_maxsize = Array.make (np + 1) 0 in
  let suffix_maxmult = Array.make ((np + 1) * nc) 0 in
  for i = np - 1 downto 0 do
    suffix_mask.(i) <- cmask.(i) lor suffix_mask.(i + 1);
    suffix_maxsize.(i) <- max sizes.(i) suffix_maxsize.(i + 1);
    for c = 0 to nc - 1 do
      suffix_maxmult.((i * nc) + c) <-
        max pmult.((i * nc) + c) suffix_maxmult.(((i + 1) * nc) + c)
    done
  done;
  let ev = Eval.make ~universe:xu g in
  let lb_cp = Levels.lower_bound_cycles (Eval.levels ev) in
  (* Search state.  Depth [d] holds [d] chosen pool indices; per depth, the
     colors they cover, the pool patterns they dominate, their largest size
     and their per-color maxima, and the incumbent at which its fab-free
     completion passed the covering bound ([-1] if it did not).  Each level
     takes a later pool index, so no depth exceeds the pool size; the
     covering rows hold one more, for the fabrication. *)
  let depth = min pdef np in
  let chosen = Array.make depth 0 in
  let covered = Array.make (depth + 1) 0 in
  let dominated = Array.init (depth + 1) (fun _ -> Bitset.create np) in
  let max_size = Array.make (depth + 1) 0 in
  let max_mult = Array.make ((depth + 1) * nc) 0 in
  let passed = Array.make (depth + 1) (-1) in
  let cv = make_cover ~ncolors:nc ~max_rows:(depth + 1) in
  let inc = ref max_int and best = ref [] in
  let ban_table = Hashtbl.create 64 and ban_rev = ref [] in
  let visited = ref 0 and capped = ref false in
  let p_span = ref 0 and p_color = ref 0 and p_ban = ref 0 and p_dom = ref 0 in
  let evaluated = ref 0 in
  (* Cost the set of [ids] unless its [key] is already in the ban table.
     Under the span rule the costing stops once the critical path of what
     is left reaches the incumbent (see [Eval.cycles_ids]): such a set is
     banned as [At_least inc], and only a set that beats the incumbent
     runs to its end. *)
  let try_set ids key =
    let known = Hashtbl.mem ban_table key in
    if known && pruning.prune_ban then incr p_ban
    else begin
      incr evaluated;
      let set = List.map (Universe.pattern xu) ids in
      let limit = if pruning.prune_span then !inc else max_int in
      let bound =
        match Eval.cycles_ids ?priority ~limit ev ids with
        | c when c >= limit -> At_least limit
        | c ->
            if c < !inc then begin
              inc := c;
              best := set
            end;
            Cost c
        | exception Eval.Unschedulable _ -> Infeasible
      in
      if not known then begin
        Hashtbl.replace ban_table key bound;
        ban_rev := { banned = set; bound } :: !ban_rev
      end
    end
  in
  (* The fabricated fallback filling the colors of [mask], [None] where it
     coincides with a pool pattern (see the header note). *)
  let fabs = Hashtbl.create 16 in
  let fab_of mask =
    match Hashtbl.find_opt fabs mask with
    | Some f -> f
    | None ->
        let missing c _ = mask land (1 lsl c) <> 0 in
        let p = Pattern.of_colors (List.filteri missing (Array.to_list colors_arr)) in
        let f = if pool_index p = None then Some (Universe.intern xu p) else None in
        Hashtbl.add fabs mask f;
        f
  in
  (* Can the completion at depth [d] (plus the fabrication of [fab_mask]
     when nonzero) beat the incumbent?  Every cycle commits one pattern,
     which places at most its multiplicity of each color, so a schedule of
     [t] cycles is an x with Σ x_p = t covering every color's count. *)
  let coverable_in_time d fab_mask =
    for j = 0 to d - 1 do
      Array.blit pmult (chosen.(j) * nc) cv.rows (j * nc) nc
    done;
    let nrows =
      if fab_mask = 0 then d
      else begin
        for c = 0 to nc - 1 do
          cv.rows.((d * nc) + c) <- (fab_mask lsr c) land 1
        done;
        d + 1
      end
    in
    Array.blit node_count_by_color 0 cv.resid 0 nc;
    cover_decide cv nrows (!inc - 1)
  in
  (* A fab-free completion whose parent's fab-free completion passed at
     this incumbent passes too: its rows are the parent's plus one, and an
     x for the parent's rows is one for them with the new row at 0. *)
  let may_improve d fab_mask =
    !inc = max_int
    || lb_cp < !inc
       && ((fab_mask = 0 && d > 0 && passed.(d - 1) = !inc)
          || coverable_in_time d fab_mask)
  in
  (* The completion of the node at depth [d], as the brute-force oracle
     does it: the chosen patterns, plus the fabrication of [fab_mask] (when
     nonzero, as [fab]) filling the missing colors. *)
  let complete_with d fab_mask fab =
    if pruning.prune_span && not (may_improve d fab_mask) then incr p_span
    else begin
      if pruning.prune_span && fab_mask = 0 then passed.(d) <- !inc;
      let ids = ref (match fab with Some id -> [ id ] | None -> []) in
      for j = d - 1 downto 0 do
        ids := Pattern.Id.of_int chosen.(j) :: !ids
      done;
      (* Pool indices ascending, then the fabrication: already sorted. *)
      try_set !ids !ids
    end
  in
  (* A fabrication needs a free slot and at most [capacity] missing
     colors. *)
  let complete d =
    let missing = all_mask land lnot covered.(d) in
    if missing = 0 then (if d > 0 then complete_with d 0 None)
    else if d < pdef && Bitset.popcount missing <= capacity then
      match fab_of missing with
      | Some _ as fab -> complete_with d missing fab
      | None -> ()
  in
  (* No completion below the node can cover the graph: the colors out of
     reach of the suffix exceed one fabrication, or the remaining picks
     cannot bridge the missing colors (the Eq. 9 budget).  At most [nc]
     colors are missing, so clamping the budget's factors to [nc] decides
     the same and keeps a huge Pdef or capacity from overflowing. *)
  let color_infeasible covered' k_rem next_start =
    let missing = all_mask land lnot covered' in
    missing <> 0
    && (k_rem = 0
       || Bitset.popcount (missing land lnot suffix_mask.(next_start)) > capacity
       || Bitset.popcount missing > min capacity nc * min k_rem nc)
  in
  (* A lower bound on any completion below [chosen + i]: critical path,
     slot pressure against the largest reachable pattern, and per-color
     load against the best reachable per-color multiplicity (a fabrication
     contributes at most one slot per still-uncovered color). *)
  let lower_bound d i covered' k_rem =
    let max_sz = max max_size.(d) sizes.(i) in
    let missing = Bitset.popcount (all_mask land lnot covered') in
    let avail =
      if k_rem >= 1 then max max_sz (max suffix_maxsize.(i + 1) (min capacity missing))
      else max_sz
    in
    let lb = ref lb_cp in
    if avail > 0 then lb := max !lb ((n_nodes + avail - 1) / avail);
    for c = 0 to nc - 1 do
      let cnt = node_count_by_color.(c) in
      if cnt > 0 then begin
        let m = max max_mult.((d * nc) + c) pmult.((i * nc) + c) in
        let m =
          if k_rem = 0 then m
          else
            let m = max m suffix_maxmult.(((i + 1) * nc) + c) in
            if covered' land (1 lsl c) = 0 then max m 1 else m
        in
        lb := max !lb (if m = 0 then max_int else (cnt + m - 1) / m)
      end
    done;
    !lb
  in
  let push d i covered' =
    chosen.(d) <- i;
    covered.(d + 1) <- covered';
    let dom = dominated.(d + 1) in
    Bitset.clear dom;
    Bitset.union_into ~dst:dom dominated.(d);
    Bitset.union_into ~dst:dom (subs i);
    max_size.(d + 1) <- max max_size.(d) sizes.(i);
    for c = 0 to nc - 1 do
      max_mult.(((d + 1) * nc) + c) <-
        max max_mult.((d * nc) + c) pmult.((i * nc) + c)
    done
  in
  let rec branch start d =
    if not !capped then begin
      incr visited;
      if !visited > max_nodes then capped := true
      else begin
        passed.(d) <- -1;
        complete d;
        if d < pdef then
          for i = start to np - 1 do
            extend i d
          done
      end
    end
  and extend i d =
    if not !capped then begin
      if pruning.prune_dominance && Bitset.mem dominated.(d) i then incr p_dom
      else begin
        let covered' = covered.(d) lor cmask.(i) in
        let k_rem = pdef - d - 1 in
        if pruning.prune_color && color_infeasible covered' k_rem (i + 1) then
          incr p_color
        else if pruning.prune_span && lower_bound d i covered' k_rem >= !inc then
          incr p_span
        else begin
          push d i covered';
          branch (i + 1) (d + 1)
        end
      end
    end
  in
  (* Warm start from a previous certificate's ban list: every prior entry
     is a proven fact about its set (cost in canonical order, or
     infeasibility), so a completion that hits the table is pruned without
     re-evaluation.  The prior incumbent is the earliest cheapest prior set
     — exactly the optimum the producing search reported (its ban list is
     in discovery order and the incumbent only ever improved strictly), so
     a warm re-search returns the same optimal set when nothing beats it. *)
  List.iter
    (fun e ->
      let key = key_of_ids (List.map (Universe.intern xu) e.banned) in
      if not (Hashtbl.mem ban_table key) then Hashtbl.replace ban_table key e.bound;
      match e.bound with
      | Cost c when c < !inc ->
          inc := c;
          best := e.banned
      | _ -> ())
    bans;
  (* The root node: its own completion (the pure fabrication), then the
     warm-start seeds, costed canonically — deterministic whatever order
     the caller's strategy emitted them in. *)
  visited := 1;
  complete 0;
  List.iter
    (fun set ->
      let ids = List.map (Universe.intern xu) (order_by pool_index set) in
      if ids <> [] then try_set ids (key_of_ids ids))
    seeds;
  (* Root subtrees in canonical order, each from the incumbent the roots
     before it left; [max_nodes] caps each one. *)
  let total_visited = ref !visited and any_capped = ref false in
  for i = 0 to np - 1 do
    visited := 0;
    capped := false;
    extend i 0;
    total_visited := !total_visited + !visited;
    if !capped then any_capped := true
  done;
  let stats =
    {
      nodes_visited = !total_visited;
      pruned_span = !p_span;
      pruned_color = !p_color;
      pruned_ban = !p_ban;
      pruned_dominance = !p_dom;
      evaluated = !evaluated;
    }
  in
  Obs.count "exact.nodes.visited" stats.nodes_visited;
  Obs.count "exact.pruned.span" stats.pruned_span;
  Obs.count "exact.pruned.color" stats.pruned_color;
  Obs.count "exact.pruned.ban" stats.pruned_ban;
  Obs.count "exact.pruned.dominance" stats.pruned_dominance;
  Obs.count "exact.evaluated" stats.evaluated;
  {
    optimal = !best;
    optimal_cycles = !inc;
    stats;
    bans = List.rev !ban_rev;
    proven = not !any_capped;
  }
