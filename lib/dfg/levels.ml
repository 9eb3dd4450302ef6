type t = { asap_arr : int array; alap_arr : int array; height_arr : int array; asap_max : int }

let compute g =
  let n = Dfg.node_count g in
  let asap_arr = Array.make n 0 in
  let height_arr = Array.make n 1 in
  let order = Topo.order g in
  (* ASAP propagates forward along the topological order... *)
  List.iter
    (fun i ->
      List.iter (fun p -> asap_arr.(i) <- max asap_arr.(i) (asap_arr.(p) + 1)) (Dfg.preds g i))
    order;
  let asap_max = Array.fold_left max (-1) asap_arr in
  (* ...ALAP and Height propagate backward. *)
  let alap_arr = Array.make n asap_max in
  List.iter
    (fun i ->
      List.iter
        (fun s ->
          alap_arr.(i) <- min alap_arr.(i) (alap_arr.(s) - 1);
          height_arr.(i) <- max height_arr.(i) (height_arr.(s) + 1))
        (Dfg.succs g i))
    (List.rev order);
  { asap_arr; alap_arr; height_arr; asap_max }

let get arr i =
  if i < 0 || i >= Array.length arr then
    invalid_arg (Printf.sprintf "Levels: node id %d out of range" i);
  arr.(i)

let asap t i = get t.asap_arr i
let alap t i = get t.alap_arr i
let height t i = get t.height_arr i
let asap_max t = t.asap_max
let mobility t i = alap t i - asap t i
let critical t i = mobility t i = 0
let lower_bound_cycles t = t.asap_max + 1

let span t nodes =
  match nodes with
  | [] -> invalid_arg "Levels.span: empty node set"
  | first :: rest ->
      let max_asap = List.fold_left (fun acc i -> max acc (asap t i)) (asap t first) rest in
      let min_alap = List.fold_left (fun acc i -> min acc (alap t i)) (alap t first) rest in
      max 0 (max_asap - min_alap)

let span_bound t nodes = t.asap_max + span t nodes + 1
