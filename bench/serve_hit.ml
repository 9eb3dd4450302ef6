(* Single-call timings of warm serve hits.

     dune exec --profile release bench/serve_hit.exe

   One request line at a time through a warm session: each line is
   answered once, so the repeats below are response-memo hits, then timed
   over 20 rounds of 1,000 calls.  Prints the best and the median round's
   microseconds per call for

   - [Server.handle_line] on a builtin name, on huge-deep's canonical text
     as the JSON escaper spells it (matched: neither decoded nor parsed),
     and on the same text with its newlines spelled \u000a (decoded and
     parsed);
   - the decode alone, [Protocol.request_of_line], of the escaped line
     with the session's lookup and without it.

   perfbench's traced serve-warm decodes without a session, so it cannot
   show what the lookup saves; this can. *)

module C = Core
module P = Mps_serve.Protocol
module Server = Mps_serve.Server
module Session = Mps_serve.Session

let rounds = 20
let calls = 1_000

let time name f =
  for _ = 1 to calls do
    f ()
  done;
  let per_call =
    Array.init rounds (fun _ ->
        let t0 = Mps_util.Clock.now_ns () in
        for _ = 1 to calls do
          f ()
        done;
        Int64.to_float (Int64.sub (Mps_util.Clock.now_ns ()) t0)
        /. 1e3 /. float_of_int calls)
  in
  Array.sort compare per_call;
  Printf.printf "%-34s best %6.2f us  median %6.2f us\n" name per_call.(0)
    per_call.(rounds / 2)

let () =
  let g = (List.assoc "huge-deep" Server.builtins) () in
  let text = C.Dfg_parse.to_string g in
  let line source = C.Json.to_line (C.Json.Obj [ ("cmd", C.Json.Str "select"); source ]) in
  let builtin = line ("graph", C.Json.Str "huge-deep") in
  let escaped = line ("dfg", C.Json.Str text) in
  let newlines =
    Printf.sprintf "{\"cmd\":\"select\",\"dfg\":\"%s\"}"
      (String.concat "\\u000a" (List.map C.Json.escaped (String.split_on_char '\n' text)))
  in
  let sess = Session.create () in
  List.iter (fun l -> ignore (Server.handle_line sess l)) [ builtin; escaped; newlines ];
  Printf.printf "huge-deep: %d text bytes, %d line bytes\n" (String.length text)
    (String.length escaped);
  let handle l () = ignore (Server.handle_line sess l) in
  time "handle_line, builtin" (handle builtin);
  time "handle_line, escaped text" (handle escaped);
  time "handle_line, \\u000a text" (handle newlines);
  let known = Session.lookup sess in
  time "decode, with the lookup" (fun () -> ignore (P.request_of_line ~known escaped));
  time "decode, without" (fun () -> ignore (P.request_of_line escaped))
