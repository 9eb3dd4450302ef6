let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Mstats.%s: empty input" name)

let mean xs =
  require_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sq /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  require_nonempty "min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let percentile xs p =
  require_nonempty "percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Mstats.percentile: p out of [0,100]";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

let median xs = percentile xs 50.0

let histogram ~bins xs =
  require_nonempty "histogram" xs;
  if bins <= 0 then invalid_arg "Mstats.histogram: bins <= 0";
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = min (max b 0) (bins - 1) in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.init bins (fun b ->
      let blo = lo +. (float_of_int b *. width) in
      (blo, blo +. width, counts.(b)))
