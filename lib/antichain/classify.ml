module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Id = Mps_pattern.Pattern.Id
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs

type entry = {
  mutable count : int;
  freq : int array;
  mutable kept : Antichain.t list; (* reversed *)
}

type t = {
  graph : Dfg.t;
  capacity : int;
  span_limit : int option;
  universe : Universe.t;
  slots : entry option array; (* bucket per universe id; None = no antichain *)
  order : Id.t array; (* ids with buckets, sorted by pattern *)
  total : int;
  truncated : bool;
}

(* One id-keyed table accumulating one domain's share of the enumeration.
   The sequential path interns straight into the master universe; parallel
   tasks intern into scratch universes whose ids are remapped at merge. *)
type partial = {
  p_universe : Universe.t;
  mutable p_slots : entry option array;
  mutable p_total : int;
}

let fresh_partial universe =
  { p_universe = universe; p_slots = [||]; p_total = 0 }

let slot_of part id =
  let i = Id.to_int id in
  let len = Array.length part.p_slots in
  if i >= len then begin
    let slots = Array.make (max (i + 1) (max 16 (2 * len))) None in
    Array.blit part.p_slots 0 slots 0 len;
    part.p_slots <- slots
  end;
  i

let classify_into ~graph ~n ~keep_antichains part a =
  part.p_total <- part.p_total + 1;
  let p = Antichain.pattern graph a in
  let i = slot_of part (Universe.intern part.p_universe p) in
  let e =
    match part.p_slots.(i) with
    | Some e -> e
    | None ->
        let e = { count = 0; freq = Array.make n 0; kept = [] } in
        part.p_slots.(i) <- Some e;
        e
  in
  e.count <- e.count + 1;
  List.iter (fun i -> e.freq.(i) <- e.freq.(i) + 1) (Antichain.nodes a);
  if keep_antichains then e.kept <- a :: e.kept

(* Merge [later] into [earlier].  [later]'s universe is folded into
   [earlier]'s in id (= first-visit) order, so merging per-root partials in
   root submission order reproduces exactly the ids the sequential walk
   would have allocated.  [kept] lists are reversed, so the later root's
   antichains are prepended — re-reversal then yields exactly the
   sequential enumeration order. *)
let merge_partials earlier later =
  let remap = Universe.merge ~into:earlier.p_universe later.p_universe in
  Array.iteri
    (fun li le ->
      match le with
      | None -> ()
      | Some le -> (
          let i = slot_of earlier remap.(li) in
          match earlier.p_slots.(i) with
          | None -> earlier.p_slots.(i) <- Some le
          | Some ee ->
              ee.count <- ee.count + le.count;
              Array.iteri (fun i c -> ee.freq.(i) <- ee.freq.(i) + c) le.freq;
              ee.kept <- le.kept @ ee.kept))
    later.p_slots;
  earlier.p_total <- earlier.p_total + later.p_total;
  earlier

exception Over_budget
(* Internal to the parallel path; never escapes [compute]. *)

(* How many locally-classified antichains a parallel task accumulates
   before publishing them to the shared budget counter.  Bounds both the
   atomic traffic (one RMW per block) and the overshoot past the budget
   (at most one block per domain). *)
let budget_flush_block = 1024

(* The common landing of both accumulation paths (sequential and domain
   pool): a merged master-universe partial becomes the published record.
   Counters fire here so both paths report identically. *)
let finish ~graph ~capacity ~span_limit ~universe ~truncated merged =
  let present =
    Universe.fold
      (fun id _ acc ->
        let i = Id.to_int id in
        if i < Array.length merged.p_slots && merged.p_slots.(i) <> None then
          id :: acc
        else acc)
      universe []
  in
  let order = Array.of_list present in
  Array.sort
    (fun a b ->
      Pattern.compare (Universe.pattern universe a) (Universe.pattern universe b))
    order;
  let slots =
    Array.init (Universe.cardinal universe) (fun i ->
        if i < Array.length merged.p_slots then merged.p_slots.(i) else None)
  in
  Obs.count "classify.antichains" merged.p_total;
  Obs.count "classify.patterns" (Array.length order);
  {
    graph;
    capacity;
    span_limit;
    universe;
    slots;
    order;
    total = merged.p_total;
    truncated;
  }

let compute ?pool ?universe ?span_limit ?budget ?(keep_antichains = false)
    ~capacity ctx =
  Obs.span "classify" @@ fun () ->
  let graph = Enumerate.ctx_graph ctx in
  let n = Dfg.node_count graph in
  let universe = match universe with Some u -> u | None -> Universe.create () in
  let sequential () =
    let part = fresh_partial universe in
    let truncated =
      match
        Enumerate.iter ?span_limit ?budget ~max_size:capacity ctx
          ~f:(classify_into ~graph ~n ~keep_antichains part)
      with
      | () -> false
      | exception Enumerate.Budget_exhausted -> true
    in
    (part, truncated)
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
     block; a graph beyond it does bounded extra work (at most
     budget + jobs·block antichains) before the sequential pass — which
     itself stops at the budget.  Either way the returned classification
     is bit-identical to the sequential one. *)
  let parallel pool =
    let shared_budget =
      match budget with
      | None -> None
      | Some b -> Some (b, Atomic.make 0, Atomic.make false)
    in
    let task root =
      let part = fresh_partial (Universe.create ()) in
      let local = ref 0 in
      let publish () =
        match shared_budget with
        | None -> ()
        | Some (b, published, aborted) ->
            if Atomic.fetch_and_add published !local + !local > b then begin
              Atomic.set aborted true;
              raise Over_budget
            end;
            local := 0
      in
      Enumerate.iter_root ?span_limit ~max_size:capacity ctx root ~f:(fun a ->
          (match shared_budget with
          | Some (_, _, aborted) when Atomic.get aborted -> raise Over_budget
          | _ -> ());
          classify_into ~graph ~n ~keep_antichains part a;
          incr local;
          if !local >= budget_flush_block then publish ());
      if !local > 0 then publish ();
      part
    in
    match
      Pool.map_reduce pool ~map:task ~reduce:merge_partials
        ~init:(fresh_partial (Universe.create ()))
        (List.init n Fun.id)
    with
    | scratch -> (merge_partials (fresh_partial universe) scratch, false)
    | exception Over_budget -> sequential ()
  in
  let merged, truncated =
    match pool with
    | Some pool when Pool.jobs pool > 1 && n > 0 -> parallel pool
    | _ -> sequential ()
  in
  finish ~graph ~capacity ~span_limit ~universe ~truncated merged

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
  if i < Array.length t.slots then t.slots.(i) else None

let find t p =
  match Universe.find t.universe p with
  | None -> None
  | Some id -> find_id t id

let count t p = match find t p with Some e -> e.count | None -> 0
let count_id t id = match find_id t id with Some e -> e.count | None -> 0

let node_frequency t p =
  match find t p with
  | Some e -> Array.copy e.freq
  | None -> Array.make (Dfg.node_count t.graph) 0

let frequency t p n = match find t p with Some e -> e.freq.(n) | None -> 0
let antichains t p = match find t p with Some e -> List.rev e.kept | None -> []
let total_antichains t = t.total

let fold_ids f t acc =
  Array.fold_left
    (fun acc id ->
      match find_id t id with
      | Some e -> f id ~count:e.count ~freq:e.freq acc
      | None -> acc)
    acc t.order

let fold f t acc =
  fold_ids
    (fun id ~count ~freq acc -> f (Universe.pattern t.universe id) ~count ~freq acc)
    t acc

let pp_table ppf t =
  Array.iter
    (fun id ->
      match find_id t id with
      | Some e ->
          Format.fprintf ppf "%a: %d antichains@." Pattern.pp
            (Universe.pattern t.universe id)
            e.count
      | None -> ())
    t.order
