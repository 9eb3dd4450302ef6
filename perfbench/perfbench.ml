(* perfbench: one workload of the mpsched benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--commit C] [--profile P] [--spans FILE]

   Every workload is a closed loop with one caller.  A --trace 0 run sets
   up once and runs one untimed pass to warm the process, then runs whole
   passes over the workload's operations until the next one would end
   after S seconds, timing set-up again between them (the median is
   reported), and takes each operation's time as its best over the
   passes; the last line of standard output carries the end-to-end
   metrics.  A --trace 1 run rebuilds every operation from
   per-layer public calls under the benchmark's own spans and carries the
   per-layer metrics instead.  The line before the last stamps the host
   and lists the run's deterministic counts. *)

module C = Core
module Json = C.Json
module Session = Mps_serve.Session
module Server = Mps_serve.Server

let nproc = Domain.recommended_domain_count ()

(* Set-up is timed once before the passes and again after each pass that
   finds the set-up time so far under [setup_share] of the time since the
   passes began, so its median covers the whole run as the passes do. *)
let setup_share = 0.2

(* ---- one workload: its set-up and its passes ---- *)

type pass = {
  samples : (int * string * float) list;
      (* (operation's index in the pass, kind, seconds) per operation *)
  counts : (string * int) list;  (* The same in every pass of a seed. *)
  words : float;  (* Allocated by the timed calls, on the calling domain. *)
  digest : string;
      (* serve: digest of the response stream, which differs between
         passes only in its session-cumulative cache counters. *)
}

type bench = {
  run_pass : unit -> pass;  (* One timed pass of end-to-end calls. *)
  rebuilt : unit -> float;
      (* One pass of per-layer rebuilds, each checked against the latest
         end-to-end pass; returns its operation seconds. *)
  graphs : Inputs.graph list;
  pool : C.Pool.t option;
  session : Session.t option;  (* serve: the session end-to-end calls use. *)
}

let sum = List.fold_left ( +. ) 0.

(* One end-to-end call, timed, its allocation added to [words]. *)
let measured words f =
  let a = Ops.allocated () in
  let v, dt = Ops.timed f in
  words := !words +. (Ops.allocated () -. a);
  (v, dt)

(* One rebuild per graph, after a full collection like the end-to-end
   call it mirrors; returns the rebuilds' seconds. *)
let rebuild_each graphs ~run ~check =
  sum
    (List.map
       (fun (g : Inputs.graph) ->
         let dt = ref 0. in
         Ops.attempt g.name (fun () ->
             Gc.full_major ();
             let r, t = Ops.timed (fun () -> run g) in
             dt := t;
             check g r);
         !dt)
       graphs)

(* One pass over [graphs], timing [op] on each after a full collection;
   [record] sees each result, for the pass's counts and the checks. *)
let graph_pass graphs ~op ~record =
  let samples = ref [] and words = ref 0. in
  List.iteri
    (fun i (g : Inputs.graph) ->
      Ops.attempt g.name (fun () ->
          Gc.full_major ();
          let v, dt = measured words (fun () -> op g) in
          samples := (i, g.name, dt) :: !samples;
          record g v))
    graphs;
  (List.rev !samples, !words)

let compile_bench ~pool graphs =
  let last = Hashtbl.create 32 in
  let run_pass () =
    let cycles = ref 0 and antichains = ref 0 and truncated = ref 0 in
    let samples, words =
      graph_pass graphs ~op:(Ops.compile ?pool) ~record:(fun g c ->
          let t = c.Ops.pipeline in
          Hashtbl.replace last g.name c;
          cycles := !cycles + t.C.Pipeline.cycles;
          antichains := !antichains + t.C.Pipeline.antichains;
          if t.C.Pipeline.truncated then incr truncated;
          Ops.check_compiled g c)
    in
    {
      samples;
      counts =
        [ ("cycles_total", !cycles); ("antichains", !antichains); ("truncated", !truncated) ];
      words;
      digest = "";
    }
  in
  let rebuilt () =
    rebuild_each graphs ~run:(Ops.compile_rebuilt ?pool) ~check:(fun g r ->
        Ops.check_rebuilt_compile g (Hashtbl.find last g.Inputs.name) r)
  in
  { run_pass; rebuilt; graphs; pool; session = None }

let certify_bench graphs =
  let last = Hashtbl.create 8 in
  let run_pass () =
    let cycles = ref 0 and visited = ref 0 and evaluated = ref 0 in
    let samples, words =
      graph_pass graphs ~op:Ops.certify ~record:(fun g c ->
          let ex = c.C.Pipeline.exact in
          Hashtbl.replace last g.name c;
          cycles := !cycles + ex.C.Exact.optimal_cycles;
          visited := !visited + ex.C.Exact.stats.C.Exact.nodes_visited;
          evaluated := !evaluated + ex.C.Exact.stats.C.Exact.evaluated;
          Ops.check_certified g c)
    in
    {
      samples;
      counts =
        [ ("cycles_total", !cycles); ("exact_visited", !visited); ("exact_evaluated", !evaluated) ];
      words;
      digest = "";
    }
  in
  let rebuilt () =
    rebuild_each graphs ~run:Ops.certify_rebuilt ~check:(fun g r ->
        Ops.check_rebuilt_certify (Hashtbl.find last g.Inputs.name) r)
  in
  { run_pass; rebuilt; graphs; pool = None; session = None }

(* Set-up serves the stream once, untimed, so every classification, eval
   cache entry and edit migration exists before timing; each timed pass
   then replays the same stream.  The traced run keeps a second, equally
   warm session for the rebuilds so both see the same state. *)
let serve_bench ~traced graphs stream =
  let sess = Ops.session_for stream in
  let rebuild_sess = if traced then Some (Ops.session_for stream) else None in
  let run_pass () =
    let samples = ref [] and words = ref 0. and cycles = ref 0 in
    let responses = Buffer.create 65536 in
    List.iteri
      (fun i (r : Inputs.request) ->
        Ops.attempt r.kind (fun () ->
            let resp, dt = measured words (fun () -> Server.handle_line sess r.line) in
            samples := (i, r.kind, dt) :: !samples;
            Buffer.add_string responses resp;
            Buffer.add_char responses '\n';
            match Ops.read_response resp with
            | Some (c, _) when c <> max_int -> cycles := !cycles + c
            | _ -> ()))
      stream;
    {
      samples = List.rev !samples;
      counts = [ ("cycles_total", !cycles) ];
      words = !words;
      digest = Digest.to_hex (Digest.string (Buffer.contents responses));
    }
  in
  (* Each rebuild is paired with the same request through handle_line on
     the end-to-end session: the difference is the response framing.  The
     two alternate in order so neither always finds the other's data in
     cache. *)
  let rebuilt () =
    let b = Option.get rebuild_sess in
    sum
      (List.mapi
         (fun i (r : Inputs.request) ->
           let dt = ref 0. in
           Ops.attempt r.kind (fun () ->
               let handle () = Ops.timed (fun () -> Server.handle_line sess r.line) in
               let rebuild () = Ops.timed (fun () -> Ops.serve_rebuilt b r.line) in
               let (resp, th), (out, t) =
                 if i mod 2 = 0 then
                   let a = handle () in
                   (a, rebuild ())
                 else
                   let o = rebuild () in
                   (handle (), o)
               in
               dt := t;
               Trace.note Ops.frames (th -. t);
               Ops.check_rebuilt_serve ~reference:resp out);
           !dt)
         stream)
  in
  { run_pass; rebuilt; graphs; pool = None; session = Some sess }

(* The paper's Table 7: 3DFT selected-column cycles at Pdef 1-5. *)
let table7 () =
  let g = (Option.get (C.Suite.find "3dft")).C.Suite.build () in
  List.iter
    (fun (pdef, _, expected) ->
      Ops.attempt (Printf.sprintf "table7 pdef %d" pdef) (fun () ->
          let t = C.Pipeline.run ~options:{ Ops.options with C.Pipeline.pdef } g in
          Ops.expect (t.C.Pipeline.cycles = expected)
            (Printf.sprintf "3dft at Pdef %d: %d cycles, Table 7 has %d" pdef
               t.C.Pipeline.cycles expected)))
    C.Paper_graphs.table7_3dft

(* Set-up checks the paper reproduction, then builds the workload's
   inputs in the seed's order. *)
let setup ~seed ~traced workload =
  table7 ();
  let rng = C.Rng.create ~seed in
  match workload with
  | "compile-cold" -> compile_bench ~pool:None (Inputs.graphs rng Inputs.compile_cold)
  | "compile-parallel" ->
      let pool = C.Pool.create ~jobs:nproc in
      compile_bench ~pool:(Some pool) (Inputs.graphs rng Inputs.compile_parallel)
  | "exact-search" -> certify_bench (Inputs.graphs rng Inputs.exact_search)
  | "serve-warm" ->
      let graphs = Inputs.graphs rng Inputs.serve_warm in
      serve_bench ~traced graphs (Inputs.stream rng graphs)
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let shutdown b = Option.iter C.Pool.shutdown b.pool

(* Whole passes, each followed by [between] given the seconds since the
   first began, until the next one, at the median pass length so far,
   would end after [seconds]; always at least one. *)
let measure ~seconds ~between run_pass =
  let start = Ops.now () in
  let elapsed () = Ops.seconds (Int64.sub (Ops.now ()) start) in
  let rec go acc =
    let p, wall = Ops.timed run_pass in
    between (elapsed ());
    let acc = (p, wall) :: acc in
    if elapsed () +. Stats.median (List.map snd acc) <= seconds then go acc
    else List.rev_map fst acc
  in
  go []

let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.

(* ---- end-to-end run (--trace 0) ---- *)

let end_to_end ~seed ~seconds workload =
  (* A first set-up and an untimed warm-up pass bring the process to its
     working heap and code; the timed set-ups and passes follow. *)
  let b0 = setup ~seed ~traced:false workload in
  ignore (b0.run_pass ());
  shutdown b0;
  let timed_setup () =
    Gc.full_major ();
    Ops.timed (fun () -> setup ~seed ~traced:false workload)
  in
  let b, first = timed_setup () in
  let setup_times = ref [ first ] in
  let between elapsed =
    if sum !setup_times < setup_share *. elapsed then begin
      let b, dt = timed_setup () in
      shutdown b;
      setup_times := dt :: !setup_times
    end
  in
  let passes = measure ~seconds ~between b.run_pass in
  shutdown b;
  let first = List.hd passes in
  Ops.attempt "counts repeat across passes" (fun () ->
      Ops.expect (List.for_all (fun p -> p.counts = first.counts) passes)
        "a deterministic count changed between passes");
  (* Load from outside the process only ever slows an operation, and on a
     shared host it comes and goes over seconds, so each operation's time
     is its best over the passes.  Pass time sums those, and the
     percentiles and geomean describe how they spread over the workload's
     operations. *)
  let best = Hashtbl.create 512 in
  List.iter
    (fun p ->
      List.iter
        (fun (i, k, t) ->
          let t = match Hashtbl.find_opt best i with Some (_, b) -> Float.min b t | None -> t in
          Hashtbl.replace best i (k, t))
        p.samples)
    passes;
  let op_best = Hashtbl.fold (fun _ (_, t) acc -> t :: acc) best [] in
  let by_kind = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (k, t) ->
      Hashtbl.replace by_kind k (t :: Option.value (Hashtbl.find_opt by_kind k) ~default:[]))
    best;
  let kind_medians = Hashtbl.fold (fun _ ts acc -> Stats.median ts :: acc) by_kind [] in
  let pass_s = sum op_best in
  let level, tail = Stats.tail op_best in
  let metrics =
    [
      ("setup_s", Stats.median !setup_times, "s");
      ("pass_s", pass_s, "s");
      ("geomean_ms", 1e3 *. Stats.geomean kind_medians, "ms");
      ("p50_us", 1e6 *. Stats.median op_best, "us");
      ("p99_us", 1e6 *. tail, "us");
      ("ops_per_s", float_of_int (List.length op_best) /. pass_s, "1/s");
      ("cycles_total", float_of_int (List.assoc "cycles_total" first.counts), "cycles");
      ("alloc_mb", Stats.median (List.map (fun p -> p.words) passes) *. word_mb, "MB");
    ]
  in
  let detail =
    [
      ("passes", Json.Num (float_of_int (List.length passes)));
      ("setups", Json.Num (float_of_int (List.length !setup_times)));
      ( "pass_seconds",
        Json.Arr
          (List.map (fun p -> Json.Num (sum (List.map (fun (_, _, t) -> t) p.samples))) passes)
      );
      ("samples", Json.Num (float_of_int (List.length (List.concat_map (fun p -> p.samples) passes))));
      ("percentile_samples", Json.Num (float_of_int (List.length op_best)));
      ("p99_us_level", Json.Num level);
      ( "kind_best_ms",
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun k ts acc -> (k, Json.Num (1e3 *. Stats.median ts)) :: acc) by_kind [])) );
      ( "counts",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) first.counts) );
      ("first_pass_digest", Json.Str first.digest);
      (* The Gc top heap: shown, not gated, because it moves with the
         collector's phase when the peak is reached. *)
      ("top_heap_mb", Json.Num (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb));
    ]
  in
  (metrics, detail)

(* ---- traced run (--trace 1) ---- *)

(* jobs 1 against a pool of nproc domains, per graph: times, allocation
   and the check that both classifications agree.  The pool lives only
   around its own classification: parked domains still join every minor
   collection, which would slow the jobs-1 side. *)
type exec_probe = {
  pool_create_s : float list;
  seq_s : float;
  words : float;
  antichains : int;
  patterns : int;
  truncated : int;
  speedups : float list;
  fallbacks : int;
}

let same_classification a b =
  let table cls =
    List.map (fun p -> (C.Pattern.to_string p, C.Classify.count cls p)) (C.Classify.patterns cls)
  in
  C.Classify.total_antichains a = C.Classify.total_antichains b
  && C.Classify.truncated a = C.Classify.truncated b
  && table a = table b

let exec_probe graphs =
  let o = C.Pipeline.default_options in
  let classify ?pool ctx =
    Trace.span "antichain.classify" (fun () ->
        C.Classify.compute ?pool ?span_limit:o.C.Pipeline.span_limit
          ?budget:o.C.Pipeline.enumeration_budget ~capacity:o.C.Pipeline.capacity ctx)
  in
  List.fold_left
    (fun acc (g : Inputs.graph) ->
      let r = ref acc in
      Ops.attempt ("jobs 1 vs pool: " ^ g.name) (fun () ->
          let ctx = Trace.span "antichain.make_ctx" (fun () -> C.Enumerate.make_ctx g.dfg) in
          Gc.full_major ();
          let w0 = Gc.minor_words () in
          let seq, t1 = Ops.timed (fun () -> classify ctx) in
          let words = Gc.minor_words () -. w0 in
          Gc.full_major ();
          let pool, created =
            Ops.timed (fun () -> Trace.span "exec.pool_create" (fun () -> C.Pool.create ~jobs:nproc))
          in
          let par, tn =
            Fun.protect ~finally:(fun () -> C.Pool.shutdown pool) (fun () ->
                Ops.timed (fun () -> classify ~pool ctx))
          in
          Ops.expect (same_classification seq par)
            "classification differs between jobs 1 and the pool";
          r :=
            {
              pool_create_s = created :: acc.pool_create_s;
              seq_s = acc.seq_s +. t1;
              words = acc.words +. words;
              antichains = acc.antichains + C.Classify.total_antichains seq;
              patterns = acc.patterns + C.Classify.pattern_count seq;
              truncated = (acc.truncated + if C.Classify.truncated seq then 1 else 0);
              speedups = (t1 /. tn) :: acc.speedups;
              fallbacks =
                (acc.fallbacks
                + if C.Pool.jobs pool > 1 && C.Classify.truncated par then 1 else 0);
            });
      !r)
    { pool_create_s = []; seq_s = 0.; words = 0.; antichains = 0; patterns = 0; truncated = 0; speedups = []; fallbacks = 0 }
    graphs

(* Serve-side facts read around an end-to-end pass: the session's
   eval-cache hit ratio over the pass, and how many classifications the
   pass caused. *)
let serve_facts b =
  let sess = Option.get b.session in
  let h0, m0 = Session.session_cache_stats sess in
  let c0 = Session.classification_count sess in
  ignore (b.run_pass ());
  let h1, m1 = Session.session_cache_stats sess in
  let hits = float_of_int (h1 - h0) and misses = float_of_int (m1 - m0) in
  ( (if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
    Session.classification_count sess - c0 )

let traced ~seed workload =
  Trace.enabled := true;
  Trace.phase := "setup";
  let b = setup ~seed ~traced:true workload in
  (* End-to-end reference pass and an untraced rebuild, recorder off;
     then the traced rebuild: its wall-clock over the untraced one is the
     tracing overhead. *)
  Trace.enabled := false;
  let facts = if b.session <> None then Some (serve_facts b) else (ignore (b.run_pass ()); None) in
  let untraced_s = b.rebuilt () in
  Trace.enabled := true;
  Trace.phase := "pass";
  let traced_s = b.rebuilt () in
  shutdown b;
  Trace.phase := "exec";
  let ex = exec_probe b.graphs in
  (* Layers this workload's operations do not reach are measured on the
     probe graph, so every traced run reports every layer. *)
  Trace.phase := "probe";
  let rng = C.Rng.create ~seed in
  let probe = [ Inputs.load rng Inputs.probe ] in
  let cb = compile_bench ~pool:None probe in
  ignore (cb.run_pass ());
  ignore (cb.rebuilt ());
  let xb = certify_bench probe in
  ignore (xb.run_pass ());
  ignore (xb.rebuilt ());
  let sb = serve_bench ~traced:true probe (Inputs.stream rng probe) in
  let probe_facts = serve_facts sb in
  ignore (sb.rebuilt ());
  Ops.attempt "auto probe" (fun () ->
      let g = (List.hd probe).dfg in
      let classify =
        C.Classify.compute ?span_limit:Ops.options.C.Pipeline.span_limit
          ~capacity:Ops.options.C.Pipeline.capacity (C.Enumerate.make_ctx g)
      in
      let o =
        Trace.span "select.auto" (fun () -> C.Auto.select ~pdef:Ops.options.C.Pipeline.pdef classify)
      in
      Ops.expect (C.Select.covers_all_colors g o.C.Auto.patterns) "auto selection misses colors");
  Trace.enabled := false;
  (* Each layer is read from the timed pass when the workload's operations
     reach it, else from the exec probe, else from the probe graph. *)
  let tables = List.map (fun ph -> (ph, Trace.layers ~in_phase:ph)) [ "pass"; "exec"; "probe" ] in
  let find name =
    match List.find_map (fun (ph, t) -> Option.map (fun l -> (ph, l)) (Hashtbl.find_opt t name)) tables with
    | Some found -> found
    | None ->
        Ops.attempt ("layer " ^ name) (fun () -> Ops.expect false "layer never exercised");
        ("none", { Trace.calls = 1; total_ns = 0L; self_ns = 0L })
  in
  let sources = Hashtbl.create 32 in
  let layer name f =
    let ph, l = find name in
    Hashtbl.replace sources name ph;
    f l
  in
  let self_us name = layer name (fun l -> Int64.to_float l.Trace.self_ns /. 1e3 /. float_of_int l.Trace.calls) in
  let total_ms name = layer name (fun l -> Int64.to_float l.Trace.total_ns /. 1e6) in
  let pass_table = List.assoc "pass" tables in
  let pass_ns name =
    match Hashtbl.find_opt pass_table name with Some l -> Int64.to_float l.Trace.total_ns | None -> 0.
  in
  let pass_wall = List.fold_left (fun acc n -> acc +. pass_ns n) 0. [ "compile"; "certify"; "serve.request" ] in
  let exact_phase = if Hashtbl.mem Ops.exact_stats "pass" then "pass" else "probe" in
  let stats = Option.value (Hashtbl.find_opt Ops.exact_stats exact_phase) ~default:[] in
  let sum_stat f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let visited = sum_stat (fun s -> s.C.Exact.nodes_visited) in
  let evaluated = sum_stat (fun s -> s.C.Exact.evaluated) in
  let pruned =
    sum_stat (fun s ->
        s.C.Exact.pruned_span + s.C.Exact.pruned_color + s.C.Exact.pruned_ban
        + s.C.Exact.pruned_dominance)
  in
  let hit_ratio, classifications = match facts with Some f -> f | None -> probe_facts in
  let frames =
    match List.find_map (Hashtbl.find_opt Ops.frames) [ "pass"; "probe" ] with
    | Some fs -> fs
    | None -> [ 0. ]
  in
  let count n = float_of_int n in
  let metrics =
    [
      ("antichain.make_ctx_ms", total_ms "antichain.make_ctx", "ms");
      ("antichain.classify_ms", total_ms "antichain.classify", "ms");
      ("antichain.classify_share", pass_ns "antichain.classify" /. pass_wall, "ratio");
      ("antichain.ns_per_antichain", ex.seq_s *. 1e9 /. count ex.antichains, "ns");
      ("antichain.alloc_words_per_antichain", ex.words /. count ex.antichains, "words");
      ("antichain.antichains", count ex.antichains, "count");
      ("antichain.patterns", count ex.patterns, "count");
      ("antichain.truncated", count ex.truncated, "count");
      ("exec.pool_create_ms", 1e3 *. Stats.median ex.pool_create_s, "ms");
      ("exec.classify_speedup", Stats.geomean ex.speedups, "ratio");
      ("exec.budget_fallbacks", count ex.fallbacks, "count");
      ("select.eq8_us", self_us "select.eq8", "us");
      ("select.auto_us", self_us "select.auto", "us");
      ("select.exact_ms", total_ms "select.exact", "ms");
      ("select.exact_share", pass_ns "select.exact" /. pass_wall, "ratio");
      ("select.exact_nodes_visited", visited, "count");
      ("select.exact_evaluated", evaluated, "count");
      ("select.exact_prune_ratio", pruned /. (pruned +. visited), "ratio");
      ( "select.exact_us_per_eval",
        layer "select.exact" (fun l -> Int64.to_float l.Trace.self_ns /. 1e3) /. evaluated,
        "us" );
      ("scheduler.eval_make_us", self_us "scheduler.eval_make", "us");
      ("scheduler.schedule_us", self_us "scheduler.schedule", "us");
      ("scheduler.cache_hit_ratio", hit_ratio, "ratio");
      ("montium.config_us", self_us "montium.config", "us");
      ("montium.allocate_us", self_us "montium.allocate", "us");
      ("montium.energy_us", self_us "montium.energy", "us");
      ("montium.verify_us", self_us "montium.verify", "us");
      ("serve.decode_us", self_us "serve.decode", "us");
      ("serve.resolve_us", self_us "serve.resolve", "us");
      ("serve.intern_us", self_us "serve.intern", "us");
      ("serve.op_us.select", self_us "serve.op.select", "us");
      ("serve.op_us.schedule", self_us "serve.op.schedule", "us");
      ("serve.op_us.pipeline", self_us "serve.op.pipeline", "us");
      ("serve.op_us.edit", self_us "serve.op.edit", "us");
      ("serve.frame_us", 1e6 *. sum frames /. float_of_int (List.length frames), "us");
      ("serve.classifications", count classifications, "count");
      ("dfg.parse_us", self_us "dfg.parse", "us");
      ("obs.overhead_ratio", traced_s /. untraced_s, "ratio");
    ]
  in
  let detail =
    [
      ("pass_wall_ms", Json.Num (pass_wall /. 1e6));
      ("spans", Json.Num (float_of_int (List.length !Trace.recorded)));
      ( "layer_source",
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun name ph acc -> (name, Json.Str ph) :: acc) sources [])) );
    ]
  in
  (metrics, detail)

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and profile = ref "unknown" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile-cold | compile-parallel | exact-search | serve-warm");
      ("--seed", Arg.Set_int seed, "N seed for graph order and generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring time of a --trace 0 run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--commit", Arg.Set_string commit, "ID source revision, for the stamp");
      ("--profile", Arg.Set_string profile, "NAME build profile, for the stamp");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let metrics, detail =
    if !trace = 1 then traced ~seed:!seed !workload
    else end_to_end ~seed:!seed ~seconds:!seconds !workload
  in
  if !trace = 1 && !spans <> "" then Trace.write_jsonl !spans;
  let stamp =
    Json.Obj
      [
        ("nproc", Json.Num (float_of_int nproc));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("profile", Json.Str !profile);
        ("commit", Json.Str !commit);
        ("seed", Json.Num (float_of_int !seed));
        ("pool", Json.Num (float_of_int (if !workload = "compile-parallel" || !trace = 1 then nproc else 1)));
        ("workload", Json.Str !workload);
        ("trace", Json.Num (float_of_int !trace));
      ]
  in
  print_endline (Json.to_line (Json.Obj (("stamp", stamp) :: detail)));
  let num x = Json.Num x in
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool (!Ops.failed = 0));
            ("attempted", num (float_of_int !Ops.attempted));
            ("failed", num (float_of_int !Ops.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, value, unit) ->
                     (name, Json.Obj [ ("value", num value); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))
