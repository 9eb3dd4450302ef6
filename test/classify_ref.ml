module Dfg = Mps_dfg.Dfg
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Antichain = Mps_antichain.Antichain
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify

type t = {
  total : int;
  truncated : bool;
  rows : (string * int * int list * int list list) list;
}

let compute ?span_limit ?budget ~keep_antichains ~capacity ctx =
  let g = Enumerate.ctx_graph ctx in
  let n = Dfg.node_count g in
  let u = Universe.create () in
  let entries = Hashtbl.create 16 in
  let total = ref 0 in
  let classify a =
    incr total;
    let id = Pattern.Id.to_int (Universe.intern u (Antichain.pattern g a)) in
    let count, freq, kept =
      match Hashtbl.find_opt entries id with
      | Some e -> e
      | None ->
          let e = (ref 0, Array.make n 0, ref []) in
          Hashtbl.add entries id e;
          e
    in
    incr count;
    List.iter (fun i -> freq.(i) <- freq.(i) + 1) (Antichain.nodes a);
    if keep_antichains then kept := Antichain.nodes a :: !kept
  in
  let truncated =
    match Enumerate.iter ?span_limit ?budget ~max_size:capacity ctx ~f:classify with
    | () -> false
    | exception Enumerate.Budget_exhausted -> true
  in
  let row id =
    let count, freq, kept = Hashtbl.find entries id in
    ( Pattern.to_string (Universe.pattern u (Pattern.Id.of_int id)),
      !count,
      Array.to_list freq,
      List.rev !kept )
  in
  { total = !total; truncated; rows = List.init (Universe.cardinal u) row }

let of_classify cls =
  let rows =
    Universe.fold
      (fun id p acc ->
        ( Pattern.to_string p,
          Classify.count_id cls id,
          Array.to_list (Classify.node_frequency cls p),
          List.map Antichain.nodes (Classify.antichains cls p) )
        :: acc)
      (Classify.universe cls) []
  in
  {
    total = Classify.total_antichains cls;
    truncated = Classify.truncated cls;
    rows = List.rev rows;
  }
