module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Obs = Mps_obs.Obs

exception Unschedulable of Color.t list

type pattern_priority = F1 | F2

type trace_row = {
  row_cycle : int;
  row_candidates : int list;
  row_selected : (Pattern.t * int list) list;
  row_chosen : int;
}

type result = { schedule : Schedule.t; trace : trace_row list }

(* Counter aggregates of one evaluation, memoized with its outcome so a
   cache hit can replay exactly the [schedule.*] counters the evaluation it
   skips would have recorded (partial ones for a failed evaluation: the
   ready-list size of the failing cycle was observed, nothing was placed). *)
type agg = { mutable n : int; mutable sum : int; mutable mn : int; mutable mx : int }

let fresh_agg () = { n = 0; sum = 0; mn = max_int; mx = min_int }

let agg_add a v =
  a.n <- a.n + 1;
  a.sum <- a.sum + v;
  if v < a.mn then a.mn <- v;
  if v > a.mx then a.mx <- v

(* [Stopped]: the run ended at its limit, see [evaluate]. *)
type outcome = Cycles of int | Failed of Color.t list | Stopped

type entry = { outcome : outcome; ready : agg; placed : agg }

type t = {
  graph : Dfg.t;
  universe : Universe.t option;
  reach : Reachability.t;
  lvls : Levels.t;
  prio : Node_priority.t;
  n : int;
  ncolors : int;
  cidx : int array;  (* color char -> dense index; graph colors only *)
  node_color : int array;
  rank : int array;  (* position in the global descending priority order *)
  height : int array;  (* Height(n), Eq. 3: cycles the node's chain still needs *)
  value : int array;  (* f(n), the F2 summand *)
  in_deg : int array;
  src : int array;  (* sources, rank-sorted once *)
  (* Scratch buffers of the fast path, reused across evaluations. *)
  preds : int array;
  cycle_of : int array;
  mutable cand : int array;
  mutable cand_next : int array;
  freed : int array;
  sel_a : int array;
  sel_b : int array;
  scratch : int array;
  (* Memo cache.  Keys are interned in a private arena so the fast path
     never mutates the caller's universe (which may be shared across
     domains for read-only lookups). *)
  keys : Universe.t;
  xlate : (int, Pattern.Id.t) Hashtbl.t;  (* caller-universe id -> key id *)
  tables : (int, int array * int) Hashtbl.t;
      (* key id -> (color table, |p̄|) *)
  cache : (int list, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let make ?universe g =
  let n = Dfg.node_count g in
  let reach = Reachability.compute g in
  let lvls = Levels.compute g in
  let prio = Node_priority.compute g reach lvls in
  let cidx = Array.make 256 (-1) in
  let ncolors = ref 0 in
  List.iter
    (fun c ->
      let k = Char.code (Color.to_char c) in
      if cidx.(k) < 0 then begin
        cidx.(k) <- !ncolors;
        incr ncolors
      end)
    (Dfg.colors g);
  let node_color =
    Array.init n (fun i -> cidx.(Char.code (Color.to_char (Dfg.color g i))))
  in
  let rank = Array.init n (Node_priority.rank prio) in
  let value = Array.init n (Node_priority.value prio) in
  let src = Array.of_list (Dfg.sources g) in
  Array.sort (fun a b -> compare rank.(a) rank.(b)) src;
  {
    graph = g;
    universe;
    reach;
    lvls;
    prio;
    n;
    ncolors = !ncolors;
    cidx;
    node_color;
    rank;
    height = Array.init n (Levels.height lvls);
    value;
    in_deg = Array.init n (Dfg.in_degree g);
    src;
    preds = Array.make n 0;
    cycle_of = Array.make n (-1);
    cand = Array.make n 0;
    cand_next = Array.make n 0;
    freed = Array.make n 0;
    sel_a = Array.make n 0;
    sel_b = Array.make n 0;
    scratch = Array.make !ncolors 0;
    keys = Universe.create ~expected:32 ();
    xlate = Hashtbl.create 32;
    tables = Hashtbl.create 32;
    cache = Hashtbl.create 64;
    hits = 0;
    misses = 0;
  }

let graph t = t.graph
let reachability t = t.reach
let levels t = t.lvls
let node_priority t = t.prio
let cache_stats t = (t.hits, t.misses)

(* --- fast path --------------------------------------------------------- *)

(* A pattern as a count table over the graph's color indices plus its full
   |p̄|.  Colors the graph never uses get no slot: they cannot match any
   candidate, and the slot counter still starts at the full size, so the
   selected-set walk is exactly the one over a table indexing them. *)
let table_for t id =
  let key = (Pattern.Id.to_int id : int) in
  match Hashtbl.find_opt t.tables key with
  | Some ts -> ts
  | None ->
      let p = Universe.pattern t.keys id in
      let table = Array.make t.ncolors 0 in
      List.iter
        (fun (c, k) ->
          let ci = t.cidx.(Char.code (Color.to_char c)) in
          if ci >= 0 then table.(ci) <- k)
        (Pattern.to_counted_list p);
      let ts = (table, Pattern.size p) in
      Hashtbl.add t.tables key ts;
      ts

(* Insertion sort of [a.(0..len-1)] by ascending rank — the freed list of a
   cycle is a handful of nodes, far below any threshold where an O(n log n)
   sort would win. *)
let rank_sort rank a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let rx = rank.(x) in
    let j = ref (i - 1) in
    while !j >= 0 && rank.(a.(!j)) > rx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* --- the engine ---------------------------------------------------------- *)

(* The evaluation state between cycles.  The heavy arrays (preds, cycle_of,
   cand) live in the context's scratch buffers — one evaluation runs at a
   time per context — so a cursor is only the scalar frontier plus the
   counter aggregates. *)
type cursor = {
  mutable cu_ncand : int;
  mutable cu_scheduled : int;
  mutable cu_cycle : int;
  cu_ready : agg;
  cu_placed : agg;
}

let init_cursor t =
  Array.blit t.in_deg 0 t.preds 0 t.n;
  Array.fill t.cycle_of 0 t.n (-1);
  let nsrc = Array.length t.src in
  Array.blit t.src 0 t.cand 0 nsrc;
  {
    cu_ncand = nsrc;
    cu_scheduled = 0;
    cu_cycle = 0;
    cu_ready = fresh_agg ();
    cu_placed = fresh_agg ();
  }

type step_result = Step_ok | Step_done | Step_stuck of Color.t list

(* One cycle of Fig. 3 on the dense arrays: score S(p̄, CL) for every
   pattern, commit the first best, free successors, merge the rank-sorted
   freed nodes into the surviving candidates.  Equivalent to one iteration
   of [schedule] below without trace rows: the candidate array is kept
   rank-sorted, which equals the per-cycle [Node_priority.sort] of the
   list version because ranks are a total order and the candidate sets
   match. *)
let step t (tabled : (int array * int) array) ~f1 cu =
  let ncand = cu.cu_ncand in
  agg_add cu.cu_ready ncand;
  (* Keep the first best.  The two selection buffers swap roles so the
     winner so far is never overwritten by the next pattern's walk. *)
  let best_len = ref 0 and best_score = ref min_int in
  let cur = ref t.sel_a and best = ref t.sel_b in
  let rank = t.rank and value = t.value and node_color = t.node_color in
  for p = 0 to Array.length tabled - 1 do
    let table, size = tabled.(p) in
    Array.blit table 0 t.scratch 0 t.ncolors;
    let slots = ref size in
    let len = ref 0 in
    let score = ref 0 in
    let k = ref 0 in
    let sel = !cur in
    while !slots > 0 && !k < ncand do
      let i = t.cand.(!k) in
      let c = node_color.(i) in
      if t.scratch.(c) > 0 then begin
        t.scratch.(c) <- t.scratch.(c) - 1;
        decr slots;
        sel.(!len) <- i;
        incr len;
        if not f1 then score := !score + value.(i)
      end;
      incr k
    done;
    let sc = if f1 then !len else !score in
    if sc > !best_score then begin
      best_score := sc;
      best_len := !len;
      let tmp = !cur in
      cur := !best;
      best := tmp
    end
  done;
  if !best_len = 0 then begin
    let cols = ref [] in
    for k = ncand - 1 downto 0 do
      cols := Dfg.color t.graph t.cand.(k) :: !cols
    done;
    Step_stuck (List.sort_uniq Color.compare !cols)
  end
  else begin
    let sel = !best in
    let blen = !best_len in
    agg_add cu.cu_placed blen;
    for k = 0 to blen - 1 do
      t.cycle_of.(sel.(k)) <- cu.cu_cycle
    done;
    let nfreed = ref 0 in
    for k = 0 to blen - 1 do
      let succ = Dfg.succ_array t.graph sel.(k) in
      for j = 0 to Array.length succ - 1 do
        let s = succ.(j) in
        let d = t.preds.(s) - 1 in
        t.preds.(s) <- d;
        if d = 0 then begin
          t.freed.(!nfreed) <- s;
          incr nfreed
        end
      done
    done;
    rank_sort rank t.freed !nfreed;
    (* Merge the surviving candidates (skipping the just-committed ones)
       with the freed nodes, both rank-sorted, into the spare array. *)
    let out = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < ncand && t.cycle_of.(t.cand.(!i)) >= 0 do
      incr i
    done;
    while !i < ncand && !j < !nfreed do
      let a = t.cand.(!i) and b = t.freed.(!j) in
      if rank.(a) < rank.(b) then begin
        t.cand_next.(!out) <- a;
        incr out;
        incr i;
        while !i < ncand && t.cycle_of.(t.cand.(!i)) >= 0 do
          incr i
        done
      end
      else begin
        t.cand_next.(!out) <- b;
        incr out;
        incr j
      end
    done;
    while !i < ncand do
      t.cand_next.(!out) <- t.cand.(!i);
      incr out;
      incr i;
      while !i < ncand && t.cycle_of.(t.cand.(!i)) >= 0 do
        incr i
      done
    done;
    while !j < !nfreed do
      t.cand_next.(!out) <- t.freed.(!j);
      incr out;
      incr j
    done;
    cu.cu_ncand <- !out;
    let tmp = t.cand in
    t.cand <- t.cand_next;
    t.cand_next <- tmp;
    cu.cu_scheduled <- cu.cu_scheduled + blen;
    cu.cu_cycle <- cu.cu_cycle + 1;
    if cu.cu_scheduled >= t.n then Step_done else Step_ok
  end

(* One list-scheduling run from cycle 0, which stops before a cycle once
   [cycle + Height(cand.(0)) >= limit].  Ranks order nodes by Height first,
   so [cand.(0)] is the tallest ready node; the tallest unscheduled node is
   always ready (an unscheduled predecessor would be taller), and its chain
   still needs Height cycles, so a stopped run cannot finish below [limit]. *)
let evaluate t tabled ~f1 ~limit =
  let cu = init_cursor t in
  let rec go () =
    if cu.cu_scheduled >= t.n then Cycles cu.cu_cycle
    else if cu.cu_cycle + t.height.(t.cand.(0)) >= limit then Stopped
    else
      match step t tabled ~f1 cu with
      | Step_stuck colors -> Failed colors
      | Step_ok | Step_done -> go ()
  in
  let outcome = go () in
  { outcome; ready = cu.cu_ready; placed = cu.cu_placed }

let replay e =
  Obs.merge "schedule.ready" Obs.Dist ~samples:e.ready.n ~total:e.ready.sum
    ~vmin:e.ready.mn ~vmax:e.ready.mx;
  Obs.merge "schedule.placed" Obs.Dist ~samples:e.placed.n ~total:e.placed.sum
    ~vmin:e.placed.mn ~vmax:e.placed.mx;
  match e.outcome with
  | Cycles c -> Obs.merge "schedule.cycles" Obs.Sum ~samples:1 ~total:c ~vmin:c ~vmax:c
  | Failed _ | Stopped -> ()

(* [ids] are key-arena ids, in the caller's pattern order.  The key MUST
   preserve that order: list position decides score ties in the scheduler,
   so two orderings of the same multiset can legitimately produce
   different schedules (two selectors that picked one multiset on dct8 in
   different orders cost 24 vs 25 cycles — caught by the auto-selector's
   identity gate).  An earlier revision sorted here and made those
   orderings collide. *)
let key_of_ids priority ids =
  (match priority with F1 -> 0 | F2 -> 1)
  :: List.map Pattern.Id.to_int ids

(* Only finished runs are memoized: a stopped run says nothing about the
   set beyond its own limit. *)
let cycles_keys ?(priority = F2) ?(limit = max_int) t ids =
  let key = key_of_ids priority ids in
  let e =
    match Hashtbl.find_opt t.cache key with
    | Some e ->
        t.hits <- t.hits + 1;
        Obs.count "eval.cache.hits" 1;
        e
    | None ->
        t.misses <- t.misses + 1;
        Obs.count "eval.cache.misses" 1;
        let tabled = Array.of_list (List.map (table_for t) ids) in
        let e =
          Obs.span "schedule" (fun () ->
              evaluate t tabled ~f1:(priority = F1) ~limit)
        in
        (match e.outcome with Stopped -> () | _ -> Hashtbl.add t.cache key e);
        e
  in
  replay e;
  match e.outcome with
  | Cycles c -> min c limit
  | Stopped -> limit
  | Failed colors -> raise (Unschedulable colors)

let cycles ?priority t patterns =
  if patterns = [] then invalid_arg "Eval.cycles: no patterns";
  cycles_keys ?priority t (List.map (Universe.intern t.keys) patterns)

let kid_of t u id =
  let k = (Pattern.Id.to_int id : int) in
  match Hashtbl.find_opt t.xlate k with
  | Some kid -> kid
  | None ->
      let kid = Universe.intern t.keys (Universe.pattern u id) in
      Hashtbl.add t.xlate k kid;
      kid

let cycles_ids ?priority ?limit t ids =
  match t.universe with
  | None -> invalid_arg "Eval.cycles_ids: context made without a universe"
  | Some u ->
      if ids = [] then invalid_arg "Eval.cycles_ids: no patterns";
      cycles_keys ?priority ?limit t (List.map (kid_of t u) ids)

(* --- full-fidelity path ------------------------------------------------ *)

(* The list scheduler of Fig. 3, verbatim from the original
   [Multi_pattern.schedule] (which now wraps it): list-based candidate
   handling, optional trace rows, declared-pattern table.  Kept
   list-shaped on purpose — this path runs once per schedule the user
   actually looks at, and its output is the reference the fast path is
   tested against. *)
let schedule ?(priority = F2) ?(trace = false) t ~patterns =
  if patterns = [] then invalid_arg "Multi_pattern.schedule: no patterns";
  Obs.span "schedule" @@ fun () ->
  (* Hash-cons Pdef through the caller's universe when given: the declared
     pattern of every cycle then shares the arena's canonical copy instead
     of a per-call duplicate. *)
  let patterns =
    match t.universe with
    | None -> patterns
    | Some u ->
        List.map (fun p -> Universe.pattern u (Universe.intern u p)) patterns
  in
  let g = t.graph in
  let n = t.n in
  let prio = t.prio in
  let node_color = t.node_color in
  let tabled =
    List.map
      (fun p ->
        let table = Array.make t.ncolors 0 in
        List.iter
          (fun (c, k) ->
            let ci = t.cidx.(Char.code (Color.to_char c)) in
            if ci >= 0 then table.(ci) <- k)
          (Pattern.to_counted_list p);
        (p, table, Pattern.size p))
      patterns
  in
  let scratch = t.scratch in
  let selected_set (_, table, size) sorted_cl =
    Array.blit table 0 scratch 0 (Array.length table);
    let slots = ref size in
    let rec go acc = function
      | [] -> List.rev acc
      | _ when !slots = 0 -> List.rev acc
      | i :: rest ->
          let k = node_color.(i) in
          if scratch.(k) > 0 then begin
            scratch.(k) <- scratch.(k) - 1;
            decr slots;
            go (i :: acc) rest
          end
          else go acc rest
    in
    go [] sorted_cl
  in
  let cycle_of = Array.make n (-1) in
  let unscheduled_preds = Array.init n (Dfg.in_degree g) in
  let cl = ref (Dfg.sources g) in
  let rows = ref [] in
  let chosen_patterns = ref [] in
  let cycle = ref 0 in
  let score selected =
    match priority with
    | F1 -> List.length selected
    | F2 -> Node_priority.sum_values prio selected
  in
  while !cl <> [] do
    Obs.observe "schedule.ready" (List.length !cl);
    let sorted = Node_priority.sort prio !cl in
    let per_pattern =
      List.map (fun ((p, _, _) as tp) -> (p, selected_set tp sorted)) tabled
    in
    (* Single pass keeps the first strictly-best pattern — same
       tie-breaking as before, without indexing back into the list. *)
    let _, best_idx, _, chosen_pattern, chosen_set =
      List.fold_left
        (fun (idx, best_idx, best_score, bp, bsel) (p, sel) ->
          let sc = score sel in
          if sc > best_score then (idx + 1, idx, sc, p, sel)
          else (idx + 1, best_idx, best_score, bp, bsel))
        (0, -1, min_int, Pattern.empty, [])
        per_pattern
    in
    if chosen_set = [] then begin
      let colors =
        List.sort_uniq Color.compare (List.map (Dfg.color g) sorted)
      in
      raise (Unschedulable colors)
    end;
    chosen_patterns := chosen_pattern :: !chosen_patterns;
    Obs.observe "schedule.placed" (List.length chosen_set);
    if trace then
      rows :=
        {
          row_cycle = !cycle + 1;
          row_candidates = sorted;
          row_selected = per_pattern;
          row_chosen = best_idx;
        }
        :: !rows;
    List.iter
      (fun i ->
        cycle_of.(i) <- !cycle;
        List.iter
          (fun s -> unscheduled_preds.(s) <- unscheduled_preds.(s) - 1)
          (Dfg.succs g i))
      chosen_set;
    (* Refill: drop the scheduled nodes, add the newly ready ones.  A node
       freed this cycle becomes a candidate for the next cycle only, which
       the strict per-cycle commit already guarantees. *)
    let remaining = List.filter (fun i -> cycle_of.(i) < 0) !cl in
    let freed =
      List.concat_map
        (fun i ->
          List.filter
            (fun s -> unscheduled_preds.(s) = 0 && cycle_of.(s) < 0)
            (Dfg.succs g i))
        chosen_set
      |> List.sort_uniq Int.compare
    in
    cl := remaining @ freed;
    incr cycle
  done;
  (* Each cycle declares the pattern the algorithm committed, so the
     configuration table of the schedule is exactly the allowed patterns it
     used — what the Montium sequencer would be loaded with. *)
  let declared = Array.of_list (List.rev !chosen_patterns) in
  let schedule = Schedule.of_cycles ~patterns:declared g cycle_of in
  Obs.count "schedule.cycles" !cycle;
  { schedule; trace = List.rev !rows }
