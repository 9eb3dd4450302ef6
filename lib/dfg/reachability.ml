module Bitset = Mps_util.Bitset

type t = { desc : Bitset.t array; par : Bitset.t array }

(* Both closures are unions of whole sets along one topological order:
   desc(i) = ∪ ({s} ∪ desc(s)) over the successors s, filled in reverse
   order, and anc(s) = ∪ ({i} ∪ anc(i)) over the predecessors i, each
   predecessor adding its set once it is final.  [anc] is needed only for
   the parallel sets. *)
let compute g =
  let n = Dfg.node_count g in
  let desc = Array.init n (fun _ -> Bitset.create n) in
  let anc = Array.init n (fun _ -> Bitset.create n) in
  let order = Topo.order g in
  let add_closed dst i src =
    Bitset.add dst i;
    Bitset.union_into ~dst src
  in
  List.iter
    (fun i -> Array.iter (fun s -> add_closed desc.(i) s desc.(s)) (Dfg.succ_array g i))
    (List.rev order);
  List.iter
    (fun i -> Array.iter (fun s -> add_closed anc.(s) i anc.(i)) (Dfg.succ_array g i))
    order;
  let par =
    Array.init n (fun i ->
        let p = Bitset.full n in
        Bitset.diff_into ~dst:p desc.(i);
        Bitset.diff_into ~dst:p anc.(i);
        Bitset.remove p i;
        p)
  in
  { desc; par }

let node_count t = Array.length t.desc

let check t i =
  if i < 0 || i >= node_count t then
    invalid_arg (Printf.sprintf "Reachability: node id %d out of range" i)

let is_follower t ~of_ n =
  check t of_;
  Bitset.mem t.desc.(of_) n

let comparable t i j =
  check t i;
  is_follower t ~of_:i j || is_follower t ~of_:j i

let parallelizable t i j =
  check t i;
  check t j;
  i <> j && not (comparable t i j)

let descendants t i =
  check t i;
  t.desc.(i)

let parallel_set t i =
  check t i;
  t.par.(i)

let comparable_pairs t =
  Array.fold_left (fun acc d -> acc + Bitset.cardinal d) 0 t.desc

let is_antichain t nodes =
  let rec no_dup = function
    | [] -> true
    | x :: rest -> (not (List.mem x rest)) && no_dup rest
  in
  no_dup nodes
  && List.for_all
       (fun i -> List.for_all (fun j -> i = j || parallelizable t i j) nodes)
       nodes
