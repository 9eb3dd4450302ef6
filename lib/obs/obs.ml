module Clock = Mps_util.Clock
module Json = Mps_util.Json
module Ascii_table = Mps_util.Ascii_table

(* Events are kept newest-first; every report walk reverses once.  [dom] is
   captured at open so a trace shows which domain a span actually ran on. *)
type ev =
  | Open of { name : string; t0 : int64; dom : int }
  | Close of { t1 : int64 }

type kind = Sum | Dist

type cstat = {
  ckind : kind;
  mutable samples : int;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
}

(* A sink is both a collector's root store and a per-task buffer. *)
type sink = {
  mutable events : ev list;
  ctable : (string, cstat) Hashtbl.t;
}

type t = { root : sink; created : int64 }

let fresh_sink () = { events = []; ctable = Hashtbl.create 16 }
let create () = { root = fresh_sink (); created = Clock.now_ns () }

(* The ambient sink of the calling domain.  One DLS slot per domain: the
   main domain carries the collector installed by [run]; pool worker
   domains carry the task buffer of whatever task they are executing, and
   nothing between tasks. *)
let ambient : sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let install s f =
  let prev = Domain.DLS.get ambient in
  Domain.DLS.set ambient s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

let run t f = install (Some t.root) f
let active () = Domain.DLS.get ambient <> None

let span name f =
  match Domain.DLS.get ambient with
  | None -> f ()
  | Some s ->
      s.events <-
        Open { name; t0 = Clock.now_ns (); dom = (Domain.self () :> int) }
        :: s.events;
      Fun.protect
        ~finally:(fun () -> s.events <- Close { t1 = Clock.now_ns () } :: s.events)
        f

let record kind name v =
  match Domain.DLS.get ambient with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.ctable name with
      | Some c ->
          c.samples <- c.samples + 1;
          c.total <- c.total + v;
          if v < c.vmin then c.vmin <- v;
          if v > c.vmax then c.vmax <- v
      | None ->
          Hashtbl.replace s.ctable name
            { ckind = kind; samples = 1; total = v; vmin = v; vmax = v })

let count name v = record Sum name v
let observe name v = record Dist name v

let merge name kind ~samples ~total ~vmin ~vmax =
  if samples > 0 then
    match Domain.DLS.get ambient with
    | None -> ()
    | Some s -> (
        match Hashtbl.find_opt s.ctable name with
        | Some c ->
            c.samples <- c.samples + samples;
            c.total <- c.total + total;
            if vmin < c.vmin then c.vmin <- vmin;
            if vmax > c.vmax then c.vmax <- vmax
        | None ->
            Hashtbl.replace s.ctable name
              { ckind = kind; samples; total; vmin; vmax })

module Task = struct
  type buffer = sink

  let begin_batch ~n =
    match Domain.DLS.get ambient with
    | None -> None
    | Some _ -> Some (Array.init n (fun _ -> fresh_sink ()))

  let run_in buf f = install (Some buf) f

  let merge_counters ~into b =
    Hashtbl.iter
      (fun name c ->
        match Hashtbl.find_opt into name with
        | Some e ->
            e.samples <- e.samples + c.samples;
            e.total <- e.total + c.total;
            if c.vmin < e.vmin then e.vmin <- c.vmin;
            if c.vmax > e.vmax then e.vmax <- c.vmax
        | None -> Hashtbl.replace into name { c with ckind = c.ckind })
      b.ctable

  let commit bufs =
    match Domain.DLS.get ambient with
    | None -> ()
    | Some parent ->
        Array.iter
          (fun b ->
            (* Both lists are newest-first: prepending the buffer keeps the
               chronological order "parent so far, then this task". *)
            parent.events <- b.events @ parent.events;
            merge_counters ~into:parent.ctable b)
          bufs
end

(* --- reports ----------------------------------------------------------- *)

type phase = { path : string; calls : int; total_ns : int64; self_ns : int64 }

type counter = {
  name : string;
  kind : kind;
  samples : int;
  total : int;
  vmin : int;
  vmax : int;
}

let event_count t = List.length t.root.events

(* Generic well-nested walk: [on_close] sees the frame's name, path, open
   data and close time.  Spans left open (reporting from inside [run]) are
   closed at the last timestamp seen. *)
let walk_spans t ~on_close =
  let events = List.rev t.root.events in
  let last =
    List.fold_left
      (fun acc -> function
        | Open { t0; _ } -> if t0 > acc then t0 else acc
        | Close { t1 } -> if t1 > acc then t1 else acc)
      t.created events
  in
  let stack = ref [] in
  let depth_path name =
    match !stack with
    | [] -> name
    | (_, path, _, _, _) :: _ -> path ^ "/" ^ name
  in
  List.iter
    (function
      | Open { name; t0; dom } ->
          stack := (name, depth_path name, t0, dom, ref 0L) :: !stack
      | Close { t1 } -> (
          match !stack with
          | [] -> () (* stray close: drop rather than crash a report *)
          | (name, path, t0, dom, child) :: rest ->
              stack := rest;
              let dur = Int64.sub t1 t0 in
              (match rest with
              | (_, _, _, _, pchild) :: _ -> pchild := Int64.add !pchild dur
              | [] -> ());
              on_close ~name ~path ~t0 ~dom ~dur ~child_ns:!child))
    events;
  (* Close dangling opens, innermost first. *)
  List.iter
    (fun (name, path, t0, dom, child) ->
      on_close ~name ~path ~t0 ~dom ~dur:(Int64.sub last t0) ~child_ns:!child)
    !stack;
  stack := []

let phases t =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  walk_spans t ~on_close:(fun ~name:_ ~path ~t0:_ ~dom:_ ~dur ~child_ns ->
      let row =
        match Hashtbl.find_opt table path with
        | Some r -> r
        | None ->
            let r = ref (0, 0L, 0L) in
            Hashtbl.replace table path r;
            order := path :: !order;
            r
      in
      let calls, total, self = !row in
      row :=
        ( calls + 1,
          Int64.add total dur,
          Int64.add self (Int64.sub dur child_ns) ));
  (* [order] recorded paths at first *close*; spans close innermost-first,
     so re-sort into first-open order by walking once more is overkill —
     parent paths are prefixes of their children, and a stable sort on
     path restores the tree reading order. *)
  List.rev !order
  |> List.map (fun path ->
         let calls, total_ns, self_ns = !(Hashtbl.find table path) in
         { path; calls; total_ns; self_ns })
  |> List.stable_sort (fun a b -> compare a.path b.path)

let counters t =
  Hashtbl.fold
    (fun name (c : cstat) acc ->
      {
        name;
        kind = c.ckind;
        samples = c.samples;
        total = c.total;
        vmin = c.vmin;
        vmax = c.vmax;
      }
      :: acc)
    t.root.ctable []
  |> List.sort (fun a b -> String.compare a.name b.name)

let well_formed t =
  let events = List.rev t.root.events in
  let ok, depth =
    List.fold_left
      (fun (ok, depth) -> function
        | Open _ -> (ok, depth + 1)
        | Close _ -> ((ok && depth > 0), depth - 1))
      (true, 0) events
  in
  ok && depth = 0

let summary_table t =
  let buf = Buffer.create 1024 in
  let spans = phases t in
  if spans <> [] then begin
    Buffer.add_string buf "phases:\n";
    let tbl =
      Ascii_table.create ~header:[ "phase"; "calls"; "total ms"; "self ms" ] ()
    in
    List.iter
      (fun p ->
        Ascii_table.add_row tbl
          [
            p.path;
            string_of_int p.calls;
            Printf.sprintf "%.3f" (Clock.ns_to_ms p.total_ns);
            Printf.sprintf "%.3f" (Clock.ns_to_ms p.self_ns);
          ])
      spans;
    Buffer.add_string buf (Ascii_table.render tbl);
    Buffer.add_char buf '\n'
  end;
  let cs = counters t in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    let tbl =
      Ascii_table.create
        ~header:[ "counter"; "kind"; "samples"; "total"; "min"; "max"; "mean" ]
        ()
    in
    List.iter
      (fun c ->
        Ascii_table.add_row tbl
          [
            c.name;
            (match c.kind with Sum -> "sum" | Dist -> "dist");
            string_of_int c.samples;
            string_of_int c.total;
            string_of_int c.vmin;
            string_of_int c.vmax;
            Printf.sprintf "%.2f" (float_of_int c.total /. float_of_int c.samples);
          ])
      cs;
    Buffer.add_string buf (Ascii_table.render tbl);
    Buffer.add_char buf '\n'
  end;
  if spans = [] && cs = [] then Buffer.add_string buf "no events recorded\n";
  Buffer.contents buf

let chrome_trace t =
  let events = ref [] in
  walk_spans t ~on_close:(fun ~name ~path:_ ~t0 ~dom ~dur ~child_ns:_ ->
      events :=
        Json.Obj
          [
            ("name", Json.Str name);
            ("ph", Json.Str "X");
            ("ts", Json.Num (Clock.ns_to_us (Int64.sub t0 t.created)));
            ("dur", Json.Num (Clock.ns_to_us dur));
            ("pid", Json.Num 1.0);
            ("tid", Json.Num (float_of_int dom));
          ]
        :: !events);
  let counter_obj =
    Json.Obj
      (List.map
         (fun c ->
           ( c.name,
             Json.Obj
               [
                 ("kind", Json.Str (match c.kind with Sum -> "sum" | Dist -> "dist"));
                 ("samples", Json.Num (float_of_int c.samples));
                 ("total", Json.Num (float_of_int c.total));
                 ("min", Json.Num (float_of_int c.vmin));
                 ("max", Json.Num (float_of_int c.vmax));
               ] ))
         (counters t))
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.rev !events));
         ("displayTimeUnit", Json.Str "ms");
         ("counters", counter_obj);
       ])

let validate_chrome_trace text =
  match Json.parse text with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok v -> (
      match Json.member "traceEvents" v with
      | None -> Error "missing traceEvents"
      | Some (Json.Arr evs) -> (
          let bad =
            List.find_opt
              (fun e ->
                List.exists
                  (fun k -> Json.member k e = None)
                  [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ])
              evs
          in
          match bad with
          | Some _ -> Error "trace event missing a required field"
          | None -> (
              match Json.member "counters" v with
              | Some (Json.Obj _) -> Ok (List.length evs)
              | _ -> Error "missing counters object"))
      | Some _ -> Error "traceEvents is not an array")
