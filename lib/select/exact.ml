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
   same for every traversal order, worker count, and for the exhaustive
   oracle (which applies the same rule). *)

module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Levels = Mps_dfg.Levels
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Eval = Mps_scheduler.Eval
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs
module Listx = Mps_util.Listx

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

type bound = Infeasible | Cost of int

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

(* Root subtrees are explored in fixed-size batches so the incumbent
   refreshes at deterministic points: the batch layout — and therefore
   every number in the certificate — is independent of the worker count. *)
let batch_size = 8

type session = {
  ev : Eval.t;
  tbl : (string, bound) Hashtbl.t;
  (* The last set actually costed through [ev] (never a ban-table skip):
     its evaluation is memoized with replay data, so a sibling set one
     positional move away is delta-costed against it. *)
  mutable last : Pattern.t list option;
  mutable ban_rev : ban_entry list;
  mutable visited : int;
  mutable p_span : int;
  mutable p_color : int;
  mutable p_ban : int;
  mutable p_dom : int;
  mutable eval_count : int;
  mutable inc : int;
  mutable best : Pattern.t list option;
  mutable capped : bool;
}

(* One root subtree's exploration: its local best, if it beat the
   incumbent it started from, plus accounting and new ban entries. *)
type task_result = {
  t_best : (int * Pattern.t list) option;
  t_stats : stats;
  t_bans : ban_entry list;
  t_capped : bool;
}

let make_session ev inc =
  {
    ev;
    tbl = Hashtbl.create 64;
    last = None;
    ban_rev = [];
    visited = 0;
    p_span = 0;
    p_color = 0;
    p_ban = 0;
    p_dom = 0;
    eval_count = 0;
    inc;
    best = None;
    capped = false;
  }

let stats_of_session s =
  {
    nodes_visited = s.visited;
    pruned_span = s.p_span;
    pruned_color = s.p_color;
    pruned_ban = s.p_ban;
    pruned_dominance = s.p_dom;
    evaluated = s.eval_count;
  }

let add_stats a b =
  {
    nodes_visited = a.nodes_visited + b.nodes_visited;
    pruned_span = a.pruned_span + b.pruned_span;
    pruned_color = a.pruned_color + b.pruned_color;
    pruned_ban = a.pruned_ban + b.pruned_ban;
    pruned_dominance = a.pruned_dominance + b.pruned_dominance;
    evaluated = a.evaluated + b.evaluated;
  }

let emit_counters s =
  Obs.count "exact.nodes.visited" s.visited;
  Obs.count "exact.pruned.span" s.p_span;
  Obs.count "exact.pruned.color" s.p_color;
  Obs.count "exact.pruned.ban" s.p_ban;
  Obs.count "exact.pruned.dominance" s.p_dom;
  Obs.count "exact.evaluated" s.eval_count

let key_of set =
  String.concat "|" (List.sort String.compare (List.map Pattern.to_string set))

(* Is [set] exactly one positional move away from [prev]: one in-place
   replacement at a single index (a swap), or [prev] with one pattern
   appended (a grow)?  Only such moves are delta-costed, because the delta
   path builds the moved set by in-place replacement / appending — for a
   positional single-diff that reconstruction IS the canonical chosen
   order (chosen sets never hold duplicate patterns), so the
   cost-canonicalization contract in the header note is preserved. *)
let positional_move prev set =
  let eq a b = Pattern.compare a b = 0 in
  let rec go swap p s =
    match (p, s) with
    | [], [] -> swap
    | [], [ a ] -> ( match swap with None -> Some (`Grow a) | Some _ -> None)
    | x :: p', y :: s' ->
        if eq x y then go swap p' s'
        else (
          match swap with
          | None -> go (Some (`Swap (x, y))) p' s'
          | Some _ -> None)
    | _ -> None
  in
  go None prev set

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

let search ?pool ?priority ?(pruning = all_pruning) ?(max_nodes = 1_000_000)
    ?(seeds = []) ?(bans = []) ~pdef classify =
  Obs.span "exact" @@ fun () ->
  if pdef < 1 then invalid_arg "Exact.search: pdef must be >= 1";
  if max_nodes < 1 then invalid_arg "Exact.search: max_nodes must be >= 1";
  (* Warm start from a previous certificate's ban list: every prior entry
     is a proven fact about its set (cost in canonical order, or
     infeasibility), so a completion that hits the table is pruned without
     re-evaluation, and the cheapest prior [Cost] set opens as the
     incumbent.  The table is filled before the fan-out and only read
     afterwards, so sharing it across worker domains is safe. *)
  let prior = Hashtbl.create (2 * List.length bans + 1) in
  let prior_best =
    List.fold_left
      (fun acc e ->
        let k = key_of e.banned in
        if not (Hashtbl.mem prior k) then Hashtbl.replace prior k e.bound;
        match (e.bound, acc) with
        | Cost c, None -> Some (c, e.banned)
        | Cost c, Some (bc, _) when c < bc -> Some (c, e.banned)
        | _ -> acc)
      None bans
  in
  let g = Classify.graph classify in
  let capacity = Classify.capacity classify in
  let u = Classify.universe classify in
  let ids = Array.of_list (Classify.ids classify) in
  Array.sort (fun i j -> pool_order (Universe.pattern u i) (Universe.pattern u j)) ids;
  let np = Array.length ids in
  let pats = Array.map (Universe.pattern u) ids in
  let csets = Array.map Pattern.color_set pats in
  let sizes = Array.map Pattern.size pats in
  let all_colors = Color.Set.of_list (Dfg.colors g) in
  let colors_arr = Array.of_list (Color.Set.elements all_colors) in
  let ncolors = Array.length colors_arr in
  let n_nodes = Dfg.node_count g in
  let node_count_by_color =
    let a = Array.make (max 1 ncolors) 0 in
    List.iter
      (fun n ->
        let c = Dfg.color g n in
        Array.iteri
          (fun i ci -> if Color.compare c ci = 0 then a.(i) <- a.(i) + 1)
          colors_arr)
      (Dfg.nodes g);
    a
  in
  let pmult =
    Array.map (fun p -> Array.map (fun c -> Pattern.count p c) colors_arr) pats
  in
  let pool_index =
    let h = Hashtbl.create (2 * np) in
    Array.iteri (fun i p -> Hashtbl.replace h (Pattern.to_string p) i) pats;
    fun p -> Hashtbl.find_opt h (Pattern.to_string p)
  in
  (* Dominance, restricted to the pool and materialized before the fan-out
     so worker domains never touch the universe's lazily-extended matrix:
     [dom.(j).(i)] iff pool pattern [i] is a proper subpattern of [j]. *)
  let dom = Array.make_matrix (max 1 np) (max 1 np) false in
  for j = 0 to np - 1 do
    for i = 0 to np - 1 do
      if i <> j then dom.(j).(i) <- Universe.proper_subpattern u ids.(i) ~of_:ids.(j)
    done
  done;
  (* Suffix aggregates over the candidate order: what patterns i.. can
     still contribute in colors, size, and per-color multiplicity. *)
  let suffix_colors = Array.make (np + 1) Color.Set.empty in
  let suffix_maxsize = Array.make (np + 1) 0 in
  let suffix_maxmult = Array.init (np + 1) (fun _ -> Array.make (max 1 ncolors) 0) in
  for i = np - 1 downto 0 do
    suffix_colors.(i) <- Color.Set.union csets.(i) suffix_colors.(i + 1);
    suffix_maxsize.(i) <- max sizes.(i) suffix_maxsize.(i + 1);
    for c = 0 to ncolors - 1 do
      suffix_maxmult.(i).(c) <- max pmult.(i).(c) suffix_maxmult.(i + 1).(c)
    done
  done;
  let master = Eval.make ~delta:true g in
  let lb_cp = Levels.lower_bound_cycles (Eval.levels master) in
  let evaluate s set =
    if set <> [] then begin
      let key = key_of set in
      let known =
        match Hashtbl.find_opt s.tbl key with
        | Some _ as b -> b
        | None -> Hashtbl.find_opt prior key
      in
      match known with
      | Some _ when pruning.prune_ban -> s.p_ban <- s.p_ban + 1
      | _ ->
          s.eval_count <- s.eval_count + 1;
          let cost_set () =
            match s.last with
            | Some prev -> (
                match positional_move prev set with
                | Some (`Swap (r, a)) ->
                    Eval.cycles_delta ?priority s.ev ~removed:r ~prev ~added:a
                | Some (`Grow a) ->
                    Eval.cycles_delta ?priority s.ev ~prev ~added:a
                | None -> Eval.cycles ?priority s.ev set)
            | None -> Eval.cycles ?priority s.ev set
          in
          let bound =
            match cost_set () with
            | c ->
                if c < s.inc then begin
                  s.inc <- c;
                  s.best <- Some set
                end;
                Cost c
            | exception Eval.Unschedulable _ -> Infeasible
          in
          s.last <- Some set;
          if known = None then begin
            Hashtbl.replace s.tbl key bound;
            s.ban_rev <- { banned = set; bound } :: s.ban_rev
          end
    end
  in
  (* Completion, as the brute-force oracle does it: fill the missing
     colors with one fabricated pattern when a slot is free and they fit —
     except when the fabrication coincides with a pool pattern (see the
     header note). *)
  let consider s pat_rev covered nchosen =
    let uncovered = Color.Set.diff all_colors covered in
    if Color.Set.is_empty uncovered then evaluate s (List.rev pat_rev)
    else if nchosen < pdef && Color.Set.cardinal uncovered <= capacity then begin
      let fab = Pattern.of_colors (Color.Set.elements uncovered) in
      if pool_index fab = None then evaluate s (List.rev (fab :: pat_rev))
    end
  in
  (* No completion below [chosen + i] can cover the graph: the colors out
     of reach of the suffix exceed one fabrication, or the remaining picks
     cannot bridge the missing colors (the Eq. 9 budget). *)
  let color_infeasible covered' k_rem next_start =
    let missing = Color.Set.diff all_colors covered' in
    if Color.Set.is_empty missing then false
    else if k_rem = 0 then true
    else
      Color.Set.cardinal (Color.Set.diff missing suffix_colors.(next_start))
      > capacity
      || Color.Set.cardinal missing > capacity * k_rem
  in
  (* A lower bound on any completion below [chosen + i]: critical path,
     slot pressure against the largest reachable pattern, and per-color
     load against the best reachable per-color multiplicity (a fabrication
     contributes at most one slot per still-uncovered color). *)
  let lower_bound idx_rev i covered' k_rem max_sz =
    let max_sz = max max_sz sizes.(i) in
    let missing = Color.Set.cardinal (Color.Set.diff all_colors covered') in
    let avail =
      if k_rem >= 1 then
        max max_sz (max suffix_maxsize.(i + 1) (min capacity missing))
      else max_sz
    in
    let lb = ref lb_cp in
    if avail > 0 then lb := max !lb ((n_nodes + avail - 1) / avail);
    for c = 0 to ncolors - 1 do
      let cnt = node_count_by_color.(c) in
      if cnt > 0 then begin
        let m = ref pmult.(i).(c) in
        List.iter (fun j -> m := max !m pmult.(j).(c)) idx_rev;
        if k_rem >= 1 then begin
          m := max !m suffix_maxmult.(i + 1).(c);
          if not (Color.Set.mem colors_arr.(c) covered') then m := max !m 1
        end;
        lb := max !lb (if !m = 0 then max_int else (cnt + !m - 1) / !m)
      end
    done;
    !lb
  in
  let rec branch s start idx_rev pat_rev covered nchosen max_sz =
    if not s.capped then begin
      s.visited <- s.visited + 1;
      if s.visited > max_nodes then s.capped <- true
      else begin
        consider s pat_rev covered nchosen;
        if nchosen < pdef then
          for i = start to np - 1 do
            extend s i idx_rev pat_rev covered nchosen max_sz
          done
      end
    end
  and extend s i idx_rev pat_rev covered nchosen max_sz =
    if not s.capped then begin
      if pruning.prune_dominance && List.exists (fun j -> dom.(j).(i)) idx_rev
      then s.p_dom <- s.p_dom + 1
      else begin
        let covered' = Color.Set.union covered csets.(i) in
        let k_rem = pdef - nchosen - 1 in
        if pruning.prune_color && color_infeasible covered' k_rem (i + 1) then
          s.p_color <- s.p_color + 1
        else if
          pruning.prune_span
          && lower_bound idx_rev i covered' k_rem max_sz >= s.inc
        then s.p_span <- s.p_span + 1
        else
          branch s (i + 1) (i :: idx_rev)
            (pats.(i) :: pat_rev)
            covered' (nchosen + 1)
            (max max_sz sizes.(i))
      end
    end
  in
  (* Sequential seed phase: the root node's own completion (the pure
     fabrication), then the warm-start incumbents, costed canonically —
     deterministic whatever order the caller's strategy emitted them in. *)
  let seed_s = make_session master max_int in
  (* The prior incumbent is the earliest cheapest prior set — exactly the
     optimum the producing search reported (its ban list is in discovery
     order and the incumbent only ever improved strictly), so a warm
     re-search returns the same optimal set when nothing beats it. *)
  (match prior_best with
  | Some (c, set) ->
      seed_s.inc <- c;
      seed_s.best <- Some set
  | None -> ());
  seed_s.visited <- 1;
  consider seed_s [] Color.Set.empty 0;
  List.iter (fun set -> evaluate seed_s (order_by pool_index set)) seeds;
  emit_counters seed_s;
  let run_root ~inc i =
    let s = make_session (Eval.make ~delta:true g) inc in
    extend s i [] [] Color.Set.empty 0 0;
    emit_counters s;
    {
      t_best = (match s.best with Some set -> Some (s.inc, set) | None -> None);
      t_stats = stats_of_session s;
      t_bans = List.rev s.ban_rev;
      t_capped = s.capped;
    }
  in
  let g_inc = ref seed_s.inc in
  let g_best = ref (match seed_s.best with Some set -> set | None -> []) in
  let g_stats = ref (stats_of_session seed_s) in
  let g_capped = ref false in
  let run_batch batch =
    let f = run_root ~inc:!g_inc in
    match pool with Some p -> Pool.map p ~f batch | None -> List.map f batch
  in
  let results_rev = ref [] in
  List.iter
    (fun batch ->
      let rs = run_batch batch in
      List.iter
        (fun r ->
          g_stats := add_stats !g_stats r.t_stats;
          if r.t_capped then g_capped := true;
          results_rev := r :: !results_rev;
          match r.t_best with
          | Some (c, set) when c < !g_inc ->
              g_inc := c;
              g_best := set
          | _ -> ())
        rs)
    (Listx.chunks batch_size (List.init np Fun.id));
  (* Merge the per-subtree ban lists in submission order.  A completed set
     lives in exactly one subtree (the one of its smallest pool index), so
     the only duplicates are seed-phase sets re-met inside a subtree. *)
  let seen = Hashtbl.create 1024 in
  let dedup entries acc =
    List.fold_left
      (fun acc e ->
        let k = key_of e.banned in
        if Hashtbl.mem seen k then acc
        else begin
          Hashtbl.replace seen k ();
          e :: acc
        end)
      acc entries
  in
  let bans_rev =
    List.fold_left
      (fun acc r -> dedup r.t_bans acc)
      (dedup (List.rev seed_s.ban_rev) [])
      (List.rev !results_rev)
  in
  {
    optimal = !g_best;
    optimal_cycles = !g_inc;
    stats = !g_stats;
    bans = List.rev bans_rev;
    proven = not !g_capped;
  }
