(* The benchmark's own span recorder.  Spans open around calls into the
   library's public functions; nothing inside the library is touched.
   Spans are kept in memory and written out once, when the run ends.

   Every span carries the phase it ran in, so one layer's numbers can be
   read from the timed pass alone: "setup", "pass" (the rebuilt workload
   pass), "exec" (the jobs-1 vs pool classification probe) and "probe"
   (the small graph every layer is exercised on). *)

module Json = Mps_util.Json

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span. *)
  op : int;  (* Shared by every span of one operation. *)
  phase : string;
  start_ns : int64;
  end_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let op = ref (-1)
let phase = ref "setup"
let now = Mps_util.Clock.now_ns

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start_ns = now () in
    Fun.protect f ~finally:(fun () ->
        let end_ns = now () in
        open_spans := List.tl !open_spans;
        recorded :=
          { id; name; parent; op = !op; phase = !phase; start_ns; end_ns }
          :: !recorded)
  end

(* [operation k f] runs [f] as operation [k]: its spans share that id. *)
let operation k f =
  op := k;
  Fun.protect f ~finally:(fun () -> op := -1)

(* [note table v] files [v] under the current phase while recording. *)
let note table v =
  if !enabled then
    Hashtbl.replace table !phase (v :: Option.value (Hashtbl.find_opt table !phase) ~default:[])

let duration s = Int64.sub s.end_ns s.start_ns

type layer = { calls : int; total_ns : int64; self_ns : int64 }

(* Per span name within one phase: calls, total time and self time (the
   span's duration minus its direct children's). *)
let layers ~in_phase =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Int64.add (duration s)
             (Option.value (Hashtbl.find_opt children s.parent) ~default:0L)))
    !recorded;
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.phase = in_phase then begin
        let child = Option.value (Hashtbl.find_opt children s.id) ~default:0L in
        let l =
          Option.value (Hashtbl.find_opt table s.name)
            ~default:{ calls = 0; total_ns = 0L; self_ns = 0L }
        in
        Hashtbl.replace table s.name
          {
            calls = l.calls + 1;
            total_ns = Int64.add l.total_ns (duration s);
            self_ns = Int64.add l.self_ns (Int64.sub (duration s) child);
          }
      end)
    !recorded;
  table

let origin = now ()

(* One span per line; times are nanoseconds since the run started. *)
let write_jsonl path =
  let oc = open_out path in
  let rel t = Json.Num (Int64.to_float (Int64.sub t origin)) in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_line
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("parent", Json.Num (float_of_int s.parent));
                ("op", Json.Num (float_of_int s.op));
                ("phase", Json.Str s.phase);
                ("start_ns", rel s.start_ns);
                ("end_ns", rel s.end_ns);
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
