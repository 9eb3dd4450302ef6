module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Id = Mps_pattern.Pattern.Id
module Pool = Mps_exec.Pool
module Bitset = Mps_util.Bitset
module Obs = Mps_obs.Obs

type t = {
  graph : Dfg.t;
  capacity : int;
  span_limit : int option;
  universe : Universe.t;
  (* Per universe id; a count of 0 means the pattern has no antichain. *)
  counts : int array;
  freqs : int array array; (* h(p̄) *)
  kept : Antichain.t list array; (* reversed *)
  order : Id.t array; (* ids with antichains, sorted by pattern *)
  total : int;
  truncated : bool;
}

(* One id-keyed table accumulating one walk's share of the enumeration.
   The sequential path interns straight into the master universe; parallel
   tasks intern into scratch universes whose ids are remapped at merge. *)
type partial = {
  p_universe : Universe.t;
  n : int; (* node count: the length of every h vector *)
  mutable p_counts : int array;
  mutable p_freqs : int array array; (* [||] until the id has an antichain *)
  mutable p_kept : Antichain.t list array;
  mutable p_total : int;
}

let fresh_partial ~n universe =
  {
    p_universe = universe;
    n;
    p_counts = [||];
    p_freqs = [||];
    p_kept = [||];
    p_total = 0;
  }

(* [a] with at least [need] slots, grown by doubling; new slots hold
   [fill]. *)
let grown a need fill =
  let len = Array.length a in
  if need <= len then a
  else begin
    let b = Array.make (max need (max 16 (2 * len))) fill in
    Array.blit a 0 b 0 len;
    b
  end

let grow part need =
  part.p_counts <- grown part.p_counts need 0;
  part.p_freqs <- grown part.p_freqs need [||];
  part.p_kept <- grown part.p_kept need []

(* The sink that classifies one walk's antichains into [part].

   The pattern of the antichain at each depth is carried as an id:
   [ids.(d)] is the id of [nodes.(0..d)], and [step] maps (id of a prefix,
   color of the next node) to the id of the extension through a table
   filled on first use — an array probe per antichain instead of building
   and hashing its pattern.  A miss interns the pattern built from its
   sorted colors, so an interned pattern is the same value whichever prefix
   reached it first.  The walk checks the budget before it calls the sink,
   so nothing is interned for an antichain the budget cuts. *)
let sink ctx walk part ~keep_antichains =
  let nodes = Enumerate.nodes walk in
  let colors = Enumerate.ctx_colors ctx and color = Enumerate.ctx_color_index ctx in
  let k = Array.length colors in
  let ids = Array.make (Array.length nodes) (-1) in
  let table = ref [||] in
  let intern prefix slot c =
    let rec prefix_colors i acc =
      if i < 0 then acc else prefix_colors (i - 1) (color.(nodes.(i)) :: acc)
    in
    let sorted = List.sort Int.compare (c :: prefix_colors (prefix - 1) []) in
    let p = Pattern.of_colors (List.map (Array.get colors) sorted) in
    let id = Id.to_int (Universe.intern part.p_universe p) in
    grow part (id + 1);
    if Array.length part.p_freqs.(id) = 0 then
      part.p_freqs.(id) <- Array.make part.n 0;
    table := grown !table (slot + 1) (-1);
    !table.(slot) <- id;
    id
  in
  (* The id of the pattern of [nodes.(0..prefix-1)] plus color [c], given
     [pid], the id of the prefix's pattern (-1 for the empty prefix). *)
  let step prefix pid c =
    let slot = ((pid + 1) * k) + c in
    let t = !table in
    if slot < Array.length t && t.(slot) >= 0 then t.(slot) else intern prefix slot c
  in
  let visit depth _span =
    let pid = if depth = 0 then -1 else ids.(depth - 1) in
    let id = step depth pid color.(nodes.(depth)) in
    ids.(depth) <- id;
    part.p_total <- part.p_total + 1;
    part.p_counts.(id) <- part.p_counts.(id) + 1;
    let h = part.p_freqs.(id) in
    for d = 0 to depth do
      h.(nodes.(d)) <- h.(nodes.(d)) + 1
    done;
    if keep_antichains then
      part.p_kept.(id) <-
        Antichain.of_nodes_unchecked (List.init (depth + 1) (Array.get nodes))
        :: part.p_kept.(id)
  in
  (* A bulk last level: each leaf bumps its own pattern's count and h, and
     the prefix's nodes are credited once per color with that color's
     leaf count. *)
  let per_color = Array.make k 0 in
  let leaves depth set =
    let pid = ids.(depth) in
    Array.fill per_color 0 k 0;
    for wi = 0 to Array.length set - 1 do
      let word = ref set.(wi) in
      while !word <> 0 do
        let j = (wi * Bitset.word_bits) + Bitset.lowest_bit !word in
        word := !word land (!word - 1);
        let c = color.(j) in
        let id = step (depth + 1) pid c in
        part.p_counts.(id) <- part.p_counts.(id) + 1;
        let h = part.p_freqs.(id) in
        h.(j) <- h.(j) + 1;
        per_color.(c) <- per_color.(c) + 1
      done
    done;
    for c = 0 to k - 1 do
      let m = per_color.(c) in
      if m > 0 then begin
        part.p_total <- part.p_total + m;
        let h = part.p_freqs.(step (depth + 1) pid c) in
        for d = 0 to depth do
          h.(nodes.(d)) <- h.(nodes.(d)) + m
        done
      end
    done
  in
  { Enumerate.visit; leaves = (if keep_antichains then None else Some leaves) }

(* Merge [later] into [earlier].  [later]'s universe is folded into
   [earlier]'s in id (= first-visit) order, so merging per-root partials in
   root submission order reproduces exactly the ids the sequential walk
   would have allocated.  [kept] lists are reversed, so the later root's
   antichains are prepended — re-reversal then yields exactly the
   sequential enumeration order. *)
let merge_partials earlier later =
  let remap = Universe.merge ~into:earlier.p_universe later.p_universe in
  Array.iteri
    (fun li id ->
      let count = later.p_counts.(li) in
      if count > 0 then begin
        let i = Id.to_int id in
        grow earlier (i + 1);
        earlier.p_counts.(i) <- earlier.p_counts.(i) + count;
        let h = earlier.p_freqs.(i) and lh = later.p_freqs.(li) in
        if Array.length h = 0 then earlier.p_freqs.(i) <- lh
        else Array.iteri (fun n c -> h.(n) <- h.(n) + c) lh;
        earlier.p_kept.(i) <- later.p_kept.(li) @ earlier.p_kept.(i)
      end)
    remap;
  earlier.p_total <- earlier.p_total + later.p_total;
  earlier

exception Over_budget
(* Internal to the parallel path; never escapes [compute]. *)

(* How many locally-classified antichains a parallel task accumulates
   before publishing them to the shared budget counter.  Bounds both the
   atomic traffic (one RMW per block) and the overshoot past the budget
   (at most one block, plus one bulk last level, per domain). *)
let budget_flush_block = 1024

(* The common landing of both accumulation paths (sequential and domain
   pool): a merged master-universe partial becomes the published record.
   Counters fire here so both paths report identically. *)
let finish ~graph ~capacity ~span_limit ~truncated part =
  let universe = part.p_universe in
  grow part (Universe.cardinal universe);
  let order =
    Array.of_list
      (List.filter
         (fun id -> part.p_counts.(Id.to_int id) > 0)
         (Array.to_list (Universe.sorted_ids universe)))
  in
  Obs.count "classify.antichains" part.p_total;
  Obs.count "classify.patterns" (Array.length order);
  {
    graph;
    capacity;
    span_limit;
    universe;
    counts = part.p_counts;
    freqs = part.p_freqs;
    kept = part.p_kept;
    order;
    total = part.p_total;
    truncated;
  }

let compute ?pool ?universe ?span_limit ?budget ?(keep_antichains = false)
    ~capacity ctx =
  Obs.span "classify" @@ fun () ->
  let graph = Enumerate.ctx_graph ctx in
  let n = Dfg.node_count graph in
  let universe = match universe with Some u -> u | None -> Universe.create () in
  let sequential () =
    let part = fresh_partial ~n universe in
    let walk = Enumerate.make_walk ?span_limit ?budget ~max_size:capacity ctx in
    let sink = sink ctx walk part ~keep_antichains in
    match
      for root = 0 to n - 1 do
        Enumerate.walk_root walk sink root
      done
    with
    | () -> (part, false)
    | exception Enumerate.Budget_exhausted -> (part, true)
  in
  (* Fan the independent root subtrees out across the pool, each task
     classifying into its own scratch universe and table; merging in root
     (= submission) order makes the result — buckets, frequency vectors,
     and the master universe's id assignment — identical to the sequential
     walk.  The scratch accumulator keeps the master universe untouched
     until the parallel walk has fully succeeded, so a budget abort cannot
     leave stray ids behind.

     A budget is a property of the sequential visit order (keep the first
     [b] antichains), so it cannot be honored by a parallel schedule
     directly.  Instead the parallel walk is optimistic: tasks publish
     their progress to a shared counter in blocks, and the moment the
     published total can exceed the budget everything aborts and the
     budgeted sequential walk runs instead.  A graph within budget never
     aborts (the counter never passes [b]) and pays one atomic RMW per
     block; a graph beyond it does bounded extra work before the
     sequential pass — which itself stops at the budget.  Either way the
     returned classification is bit-identical to the sequential one. *)
  let parallel pool =
    let published = Atomic.make 0 and aborted = Atomic.make false in
    let task root =
      let part = fresh_partial ~n (Universe.create ()) in
      let walk = Enumerate.make_walk ?span_limit ~max_size:capacity ctx in
      let sink = sink ctx walk part ~keep_antichains in
      (match budget with
      | None -> Enumerate.walk_root walk sink root
      | Some b ->
          let flushed = ref 0 in
          let publish () =
            let local = part.p_total - !flushed in
            flushed := part.p_total;
            if Atomic.fetch_and_add published local + local > b then begin
              Atomic.set aborted true;
              raise Over_budget
            end
          in
          let meter () =
            if Atomic.get aborted then raise Over_budget;
            if part.p_total - !flushed >= budget_flush_block then publish ()
          in
          let metered =
            {
              Enumerate.visit =
                (fun depth span ->
                  sink.visit depth span;
                  meter ());
              leaves =
                Option.map
                  (fun bulk depth set ->
                    bulk depth set;
                    meter ())
                  sink.leaves;
            }
          in
          Enumerate.walk_root walk metered root;
          if part.p_total > !flushed then publish ());
      part
    in
    match Pool.map pool ~f:task (List.init n Fun.id) with
    | parts ->
        let scratch =
          List.fold_left merge_partials (fresh_partial ~n (Universe.create ())) parts
        in
        (merge_partials (fresh_partial ~n universe) scratch, false)
    | exception Over_budget -> sequential ()
  in
  let merged, truncated =
    match pool with
    | Some pool when Pool.jobs pool > 1 && n > 0 -> parallel pool
    | _ -> sequential ()
  in
  finish ~graph ~capacity ~span_limit ~truncated merged

let truncated t = t.truncated
let graph t = t.graph
let capacity t = t.capacity
let span_limit t = t.span_limit
let universe t = t.universe
let ids t = Array.to_list t.order
let pattern_count t = Array.length t.order
let patterns t = List.map (Universe.pattern t.universe) (ids t)

let find_id t id =
  let i = Id.to_int id in
  if i < Array.length t.counts && t.counts.(i) > 0 then Some i else None

let find t p =
  match Universe.find t.universe p with
  | None -> None
  | Some id -> find_id t id

let count t p = match find t p with Some i -> t.counts.(i) | None -> 0
let count_id t id = match find_id t id with Some i -> t.counts.(i) | None -> 0

let node_frequency t p =
  match find t p with
  | Some i -> Array.copy t.freqs.(i)
  | None -> Array.make (Dfg.node_count t.graph) 0

let frequency t p n = match find t p with Some i -> t.freqs.(i).(n) | None -> 0
let antichains t p = match find t p with Some i -> List.rev t.kept.(i) | None -> []
let total_antichains t = t.total

let fold_ids f t acc =
  Array.fold_left
    (fun acc id ->
      let i = Id.to_int id in
      f id ~count:t.counts.(i) ~freq:t.freqs.(i) acc)
    acc t.order

let fold f t acc =
  fold_ids
    (fun id ~count ~freq acc -> f (Universe.pattern t.universe id) ~count ~freq acc)
    t acc

let pp_table ppf t =
  fold_ids
    (fun id ~count ~freq:_ () ->
      Format.fprintf ppf "%a: %d antichains@." Pattern.pp
        (Universe.pattern t.universe id)
        count)
    t ()
