(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [a] is sorted, non-empty. *)
let quantile a q =
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (sorted xs) 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* The tail percentile: the highest of p99, p90 and p50 that leaves at
   least ten samples beyond it.  Returns the level with the value. *)
let tail xs =
  let n = List.length xs in
  let level = if n >= 1000 then 0.99 else if n >= 100 then 0.90 else 0.50 in
  (level, quantile (sorted xs) level)
