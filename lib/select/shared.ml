module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Classify = Mps_antichain.Classify
module Enumerate = Mps_antichain.Enumerate
module Eval = Mps_scheduler.Eval

type kernel = {
  label : string;
  graph : Dfg.t;
  classify : Classify.t;
}

let kernel ?span_limit ?budget ?(capacity = 5) ~label graph =
  {
    label;
    graph;
    classify = Classify.compute ?span_limit ?budget ~capacity (Enumerate.make_ctx graph);
  }

type outcome = {
  patterns : Pattern.t list;
  per_kernel_cycles : (string * int) list;
  total_cycles : int;
}

let select ?(params = Select.default_params) ~pdef kernels =
  if kernels = [] then invalid_arg "Shared.select: no kernels";
  if pdef < 1 then invalid_arg "Shared.select: pdef must be >= 1";
  let capacity = Classify.capacity (List.hd kernels).classify in
  List.iter
    (fun k ->
      if Classify.capacity k.classify <> capacity then
        invalid_arg "Shared.select: kernels have differing capacities")
    kernels;
  let all_colors =
    List.fold_left
      (fun acc k -> Color.Set.union acc (Color.Set.of_list (Dfg.colors k.graph)))
      Color.Set.empty kernels
  in
  (* Pool: union of the kernels' pattern pools, interned into a universe
     shared across kernels.  Per pattern keep, for each kernel that
     realizes it, that kernel's frequency vector. *)
  let u = Universe.create () in
  let entries_of : (Pattern.Id.t, (int * int array) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iteri
    (fun ki k ->
      Classify.fold
        (fun p ~count:_ ~freq () ->
          let id = Universe.intern u p in
          let prev = Option.value (Hashtbl.find_opt entries_of id) ~default:[] in
          Hashtbl.replace entries_of id ((ki, freq) :: prev))
        k.classify ())
    kernels;
  (* Per-kernel coverage. *)
  let coverage =
    List.map (fun k -> Select.coverage ~params (Dfg.node_count k.graph)) kernels
    |> Array.of_list
  in
  (* Eq. 8 over the suite: the size bonus once, then each realizing
     kernel's balancing addend against that kernel's own coverage. *)
  let score ~size entries =
    List.fold_left
      (fun acc (ki, freq) -> acc +. Select.balance coverage.(ki) ~freq)
      (params.Select.alpha *. float_of_int (size * size))
      entries
  in
  let patterns =
    (Select.run u ~capacity ~colors:all_colors ~pdef ~score
       ~commit:(List.iter (fun (ki, freq) -> Select.commit coverage.(ki) freq))
       (Universe.sorted_ids u |> Array.to_list
       |> List.map (fun id -> (id, Hashtbl.find entries_of id))))
      .Select.patterns
  in
  let per_kernel_cycles =
    List.map
      (fun k -> (k.label, Eval.cycles (Eval.make k.graph) patterns))
      kernels
  in
  {
    patterns;
    per_kernel_cycles;
    total_cycles = List.fold_left (fun acc (_, c) -> acc + c) 0 per_kernel_cycles;
  }
