module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color
module Classify = Mps_antichain.Classify

type context = { freq : int array; count : int; cover : int array; size : int }

type variant = { name : string; doc : string; score : context -> float }

let size_bonus ctx = 20.0 *. float_of_int (ctx.size * ctx.size)

let paper =
  {
    name = "paper";
    doc = "Eq. 8: sum h/(cover+0.5) + 20*|p|^2";
    score =
      (fun ctx ->
        Select.priority ~params:Select.default_params ~cover:ctx.cover ~freq:ctx.freq
          ~size:ctx.size);
  }

let linear_size =
  {
    name = "linear-size";
    doc = "Eq. 8 with a linear size bonus";
    score =
      (fun ctx ->
        Select.balance ~params:Select.default_params ~cover:ctx.cover ~freq:ctx.freq
        +. (20.0 *. float_of_int ctx.size));
  }

let raw_count =
  {
    name = "raw-count";
    doc = "antichain count + 20*|p|^2, no balancing";
    score = (fun ctx -> float_of_int ctx.count +. size_bonus ctx);
  }

let coverage_gap =
  {
    name = "coverage-gap";
    doc = "only uncovered nodes score; set-cover flavor";
    score =
      (fun ctx ->
        let acc = ref 0.0 in
        Array.iteri
          (fun n h -> if h > 0 && ctx.cover.(n) = 0 then acc := !acc +. float_of_int h)
          ctx.freq;
        !acc +. size_bonus ctx);
  }

let sqrt_damping =
  {
    name = "sqrt-damping";
    doc = "Eq. 8 with 1/sqrt(cover+0.5) damping";
    score =
      (fun ctx ->
        let acc = ref 0.0 in
        Array.iteri
          (fun n h ->
            if h > 0 then
              acc := !acc +. (float_of_int h /. sqrt (float_of_int ctx.cover.(n) +. 0.5)))
          ctx.freq;
        !acc +. size_bonus ctx);
  }

let all = [ paper; linear_size; raw_count; coverage_gap; sqrt_damping ]

let greedy_count =
  {
    name = "greedy-count";
    doc = "antichain count only: no balancing, no size bonus";
    score = (fun ctx -> float_of_int ctx.count);
  }

let select variant ~pdef classify =
  if pdef < 1 then invalid_arg "Priority_variants.select: pdef must be >= 1";
  let g = Classify.graph classify in
  let cover = Array.make (Dfg.node_count g) 0 in
  (Select.run (Classify.universe classify) ~capacity:(Classify.capacity classify)
     ~colors:(Color.Set.of_list (Dfg.colors g)) ~pdef
     ~score:(fun ~size (count, freq) -> variant.score { freq; count; cover; size })
     ~commit:(fun (_, freq) -> Select.add_cover cover freq)
     (Classify.fold_ids (fun id ~count ~freq acc -> (id, (count, freq)) :: acc) classify []
     |> List.rev))
    .Select.patterns
