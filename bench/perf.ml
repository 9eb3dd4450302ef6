(* Microbenchmarks with hard gates: the pattern universe's interning and
   dominance matrix, and the ways a search costs a pattern set (cold
   schedule, warm Eval context, memo-cache hit, delta replay).
   End-to-end timings of the compile, exact-search and serve paths live in
   perfbench (BENCHMARK.json). *)

module Pg = Core.Paper_graphs
module Dfg = Core.Dfg
module Pattern = Core.Pattern
module Mp = Core.Multi_pattern

let capacity = Pg.montium_capacity
let dft3 = Pg.fig2_3dft ()

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- pattern ops: interning + matrix vs direct subpattern --------------

   Times the three primitives the universe exists for: interning a pool of
   patterns, and all-pairs subpattern tests answered directly (multiset
   walk) vs from the warmed dominance matrix.  The two all-pairs passes
   must agree exactly, and the matrix must beat the walk by at least 5x —
   both are hard gates (check.sh runs the smoke variant). *)

module Universe = Core.Universe

let run_pattern_ops ?(smoke = false) () =
  let colors = List.map Core.Color.of_char [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
  let pats = Array.of_list (Pattern.enumerate ~colors ~max_size:capacity) in
  let n = Array.length pats in
  let reps = if smoke then 50 else 400 in
  let (), t_intern =
    wall (fun () ->
        for _ = 1 to reps do
          let u = Universe.create ~expected:n () in
          Array.iter (fun p -> ignore (Universe.intern u p)) pats
        done)
  in
  let hits_direct = ref 0 in
  let (), t_direct =
    wall (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            let p = pats.(i) in
            for j = 0 to n - 1 do
              if Pattern.subpattern pats.(j) ~of_:p then incr hits_direct
            done
          done
        done)
  in
  let u = Universe.create ~expected:n () in
  let ids = Array.map (Universe.intern u) pats in
  (* First query pays the lazy matrix build; warm it outside the clock. *)
  ignore (Universe.subpattern u ids.(0) ~of_:ids.(0));
  let hits_matrix = ref 0 in
  let (), t_matrix =
    wall (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            let pid = ids.(i) in
            for j = 0 to n - 1 do
              if Universe.subpattern u ids.(j) ~of_:pid then incr hits_matrix
            done
          done
        done)
  in
  let queries = float_of_int (reps * n * n) in
  let per_query t = t *. 1e9 /. queries in
  Printf.printf "\n=== Pattern ops: %d patterns, %d reps ===\n" n reps;
  Printf.printf "  intern             %10.1f ns/pattern\n"
    (t_intern *. 1e9 /. float_of_int (reps * n));
  Printf.printf "  subpattern/direct  %10.1f ns/query (%d positive)\n"
    (per_query t_direct) !hits_direct;
  Printf.printf "  subpattern/matrix  %10.1f ns/query (%d positive)\n"
    (per_query t_matrix) !hits_matrix;
  if !hits_direct <> !hits_matrix then begin
    Printf.printf "MISMATCH: matrix answers differ from the direct multiset walk\n";
    exit 1
  end;
  let speedup = if t_matrix > 0. then t_direct /. t_matrix else Float.infinity in
  Printf.printf "  matrix speedup     %10.2fx\n" speedup;
  if speedup < 5.0 then begin
    Printf.printf
      "REGRESSION: matrix subpattern under 5x faster than the multiset walk\n";
    exit 1
  end

(* --- eval ops: cold schedule vs warm context vs memo cache -------------

   Times the three ways a search can cost a pattern set on one graph: the
   full [Multi_pattern.schedule] path (fresh analyses and a [Schedule.t]
   per call), one shared [Eval] context evaluating distinct sets (analyses
   amortized, dense inner loop, nothing cached yet), and the same context
   re-answering sets it has already scheduled (pure memo-cache hits).  All
   three must agree on every cycle count, the cache must report exactly
   the expected hit/miss split, and the warm context must beat the cold
   path by at least 5x — hard gates (check.sh runs the smoke variant).
   The line starting with '{' is machine-readable JSON; BENCH_eval.json
   at the repo root is one committed full-mode capture of it. *)

module Rng = Core.Rng
module Schedule = Core.Schedule
module Eval = Core.Eval
module Random_select = Core.Random_select

(* Best-of-N wall time: the timed regions are a few milliseconds, so a
   single sample is at the mercy of scheduler noise; the minimum of a few
   trials is the stable figure (first trial also absorbs warm-up). *)
let wall_min trials f =
  let best = ref infinity in
  for _ = 1 to trials do
    let (), t = wall f in
    if t < !best then best := t
  done;
  !best

let run_eval_ops ?(smoke = false) () =
  let g = dft3 in
  let target = if smoke then 32 else 64 in
  let reps = if smoke then 50 else 100 in
  let trials = 3 in
  let rng = Rng.create ~seed:7 in
  let colors = Dfg.colors g in
  (* Distinct coverage-complete sets; the canonical key ignores order so
     the warm pass never accidentally hits the (order-insensitive) cache. *)
  let seen = Hashtbl.create 97 in
  let sets = ref [] in
  let guard = ref 0 in
  while List.length !sets < target && !guard < target * 50 do
    incr guard;
    let ps = Random_select.select rng ~colors ~capacity ~pdef:4 in
    let key =
      String.concat "|" (List.sort compare (List.map Pattern.to_string ps))
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      sets := ps :: !sets
    end
  done;
  let sets = Array.of_list (List.rev !sets) in
  let nsets = Array.length sets in
  let cold = Array.make nsets 0 in
  let t_cold =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          for i = 0 to nsets - 1 do
            let r = Mp.schedule ~patterns:sets.(i) g in
            cold.(i) <- Schedule.cycles r.Mp.schedule
          done
        done)
  in
  let warm = Array.make nsets 0 in
  let t_warm =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          (* Fresh context per rep: every set is a miss, so this times the
             dense evaluation loop with analyses amortized over [nsets]. *)
          let ev = Eval.make g in
          for i = 0 to nsets - 1 do
            warm.(i) <- Eval.cycles ev sets.(i)
          done
        done)
  in
  let ev = Eval.make g in
  let hot = Array.make nsets 0 in
  for i = 0 to nsets - 1 do
    hot.(i) <- Eval.cycles ev sets.(i)
  done;
  let t_hit =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          for i = 0 to nsets - 1 do
            hot.(i) <- Eval.cycles ev sets.(i)
          done
        done)
  in
  let hits, misses = Eval.cache_stats ev in
  let evals = float_of_int (reps * nsets) in
  let per t = t *. 1e9 /. evals in
  let warm_speedup = if t_warm > 0. then t_cold /. t_warm else Float.infinity in
  let hit_speedup = if t_hit > 0. then t_cold /. t_hit else Float.infinity in
  Printf.printf "\n=== Eval ops: %d pattern sets on 3dft, %d reps ===\n" nsets
    reps;
  Printf.printf "  cold Multi_pattern.schedule %10.1f ns/eval\n" (per t_cold);
  Printf.printf "  warm Eval.cycles (miss)     %10.1f ns/eval\n" (per t_warm);
  Printf.printf "  hot  Eval.cycles (hit)      %10.1f ns/eval\n" (per t_hit);
  Printf.printf "  warm speedup %10.2fx   hit speedup %10.2fx\n" warm_speedup
    hit_speedup;
  if cold <> warm || cold <> hot then begin
    Printf.printf
      "MISMATCH: cold/warm/hit cycle counts disagree on some pattern set\n";
    exit 1
  end;
  if misses <> nsets || hits <> trials * reps * nsets then begin
    Printf.printf
      "MISMATCH: cache reports %d hits / %d misses, expected %d / %d\n" hits
      misses
      (trials * reps * nsets)
      nsets;
    exit 1
  end;
  (* --- delta row: suffix replay vs full re-evaluation ---------------

     A move stream where delta shines: a deep two-wide pipeline whose
     first [layers - 9] layers are all one color and only the nine tail
     layers cycle through the colors the moves touch (c, d, e).  A set is
     the constant "aa" plus one single-color pattern per tail color;
     every move swaps one of those three slots for a different size, so
     the first divergent cycle is the first tail cycle — placed one past
     the checkpoint ladder's 211 so [Eval.cycles_delta] restores there
     and replays only the tail, while the full path re-steps the whole
     pipeline.  Walking the 5x5x5 size grid in snake order gives 124
     single-swap moves over 125 distinct sets per context, so the one
     recorded full evaluation opening each stream is amortized exactly as
     it is in an annealing or beam move loop.  Each rep walks the stream
     on a fresh context (every set a miss), but the contexts are built
     outside the clock, with a major collection between: graph analyses
     cost the same on both sides and their garbage would otherwise be
     collected inside the timed region. *)
  let dlayers = 221 in
  let dtail = 9 in
  let dreps = if smoke then 4 else 10 in
  let dg =
    let name l k = Printf.sprintf "n%d_%d" l k in
    let color l =
      if l < dlayers - dtail then 'a'
      else [| 'c'; 'd'; 'e' |].((l - (dlayers - dtail)) mod 3)
    in
    let nodes = ref [] and edges = ref [] in
    for l = dlayers - 1 downto 0 do
      for k = 1 downto 0 do
        nodes := (name l k, Core.Color.of_char (color l)) :: !nodes;
        if l > 0 then
          for p = 0 to 1 do
            edges := (name (l - 1) p, name l k) :: !edges
          done
      done
    done;
    Dfg.of_alist !nodes !edges
  in
  let base = Pattern.of_string "aa" in
  let slot c k = Pattern.of_string (String.make (k + 1) c) in
  let set (i, j, k) = [ base; slot 'c' i; slot 'd' j; slot 'e' k ] in
  (* Boustrophedon walk of the size grid: consecutive triples differ in
     exactly one coordinate, by one size step. *)
  let stream =
    let acc = ref [] in
    for i = 0 to 4 do
      let js = if i mod 2 = 0 then [ 0; 1; 2; 3; 4 ] else [ 4; 3; 2; 1; 0 ] in
      List.iteri
        (fun jx j ->
          let ks =
            if (i * 5 + jx) mod 2 = 0 then [ 0; 1; 2; 3; 4 ]
            else [ 4; 3; 2; 1; 0 ]
          in
          List.iter (fun k -> acc := (i, j, k) :: !acc) ks)
        js
    done;
    Array.of_list (List.rev !acc)
  in
  let nv = Array.length stream in
  let moved prev next =
    (* The one slot the snake walk changed. *)
    let (pi, pj, pk), (ni, nj, nk) = (prev, next) in
    if pi <> ni then (slot 'c' pi, slot 'c' ni)
    else if pj <> nj then (slot 'd' pj, slot 'd' nj)
    else (slot 'e' pk, slot 'e' nk)
  in
  let wall_min_fresh ~delta f =
    let best = ref infinity in
    for _ = 1 to trials do
      let evs = Array.init dreps (fun _ -> Eval.make ~delta dg) in
      Gc.full_major ();
      let (), t = wall (fun () -> Array.iter f evs) in
      if t < !best then best := t
    done;
    !best
  in
  let dfull = Array.make nv 0 in
  let t_dfull =
    wall_min_fresh ~delta:false (fun ev ->
        for i = 0 to nv - 1 do
          dfull.(i) <- Eval.cycles ev (set stream.(i))
        done)
  in
  let walk_delta out ev =
    out.(0) <- Eval.cycles ev (set stream.(0));
    for i = 1 to nv - 1 do
      let removed, added = moved stream.(i - 1) stream.(i) in
      out.(i) <-
        Eval.cycles_delta ev ~removed ~prev:(set stream.(i - 1)) ~added
    done
  in
  let ddelta = Array.make nv 0 in
  let t_ddelta = wall_min_fresh ~delta:true (walk_delta ddelta) in
  (* One untimed pass to pin the accounting: every move a delta hit, no
     fallbacks, every set exactly one cache miss. *)
  let ev = Eval.make ~delta:true dg in
  walk_delta ddelta ev;
  let d_hits, d_fallbacks, d_saved = Eval.delta_stats ev in
  let dch, dcm = Eval.cache_stats ev in
  let devals = float_of_int (dreps * nv) in
  let dper t = t *. 1e9 /. devals in
  let delta_speedup =
    if t_ddelta > 0. then t_dfull /. t_ddelta else Float.infinity
  in
  Printf.printf "\n=== Eval delta: %d-swap stream on deep%dx2, %d reps ===\n"
    (nv - 1) dlayers dreps;
  Printf.printf "  full Eval.cycles (miss)     %10.1f ns/eval\n" (dper t_dfull);
  Printf.printf "  delta suffix replay         %10.1f ns/eval\n" (dper t_ddelta);
  Printf.printf "  delta speedup %9.2fx   (%d hits, %d fallbacks, %d cycles saved)\n"
    delta_speedup d_hits d_fallbacks d_saved;
  if dfull <> ddelta then begin
    Printf.printf
      "MISMATCH: delta and full cycle counts disagree on some move\n";
    exit 1
  end;
  if d_hits <> nv - 1 || d_fallbacks <> 0 || d_saved <= 0 then begin
    Printf.printf
      "MISMATCH: delta stats report %d hits / %d fallbacks / %d saved, \
       expected %d / 0 / >0\n"
      d_hits d_fallbacks d_saved (nv - 1);
    exit 1
  end;
  if dch <> 0 || dcm <> nv then begin
    Printf.printf
      "MISMATCH: delta pass cache reports %d hits / %d misses, expected 0 / %d\n"
      dch dcm nv;
    exit 1
  end;
  Printf.printf
    "{\"bench\":\"eval-ops\",\"graph\":\"3dft\",\"smoke\":%b,\"sets\":%d,\
     \"reps\":%d,\"cold_ns_per_eval\":%.1f,\"warm_ns_per_eval\":%.1f,\
     \"hit_ns_per_eval\":%.1f,\"warm_speedup\":%.2f,\"hit_speedup\":%.2f,\
     \"cache_hits\":%d,\"cache_misses\":%d,\"delta_graph\":\"deep%dx2\",\
     \"delta_moves\":%d,\"delta_reps\":%d,\"delta_full_ns_per_eval\":%.1f,\
     \"delta_ns_per_eval\":%.1f,\"delta_speedup\":%.2f,\"delta_hits\":%d,\
     \"delta_fallbacks\":%d,\"delta_cycles_saved\":%d}\n"
    smoke nsets reps (per t_cold) (per t_warm) (per t_hit) warm_speedup
    hit_speedup hits misses dlayers (nv - 1) dreps (dper t_dfull)
    (dper t_ddelta) delta_speedup d_hits d_fallbacks d_saved;
  if warm_speedup < 5.0 then begin
    Printf.printf
      "REGRESSION: warm Eval.cycles under 5x faster than cold \
       Multi_pattern.schedule\n";
    exit 1
  end;
  if delta_speedup < 3.0 then begin
    Printf.printf
      "REGRESSION: Eval.cycles_delta under 3x faster than full \
       re-evaluation on the move stream\n";
    exit 1
  end
