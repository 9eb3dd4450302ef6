exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment s =
  match String.index_opt s '#' with
  | None -> s
  | Some i -> String.sub s 0 i

(* One pass over the text: a line ends at '\n' and its comment starts at
   its first '#'; tokens are the runs between spaces and tabs, kept as
   index spans (a line needs at most four to be told apart), and only
   names are copied out.  Errors match the line-splitting reading: any
   token count but three is an unknown directive, and an edge resolves
   its destination before its source. *)
let of_native_string text =
  let b = Dfg.Builder.create () in
  let n = String.length text in
  let starts = Array.make 4 0 and stops = Array.make 4 0 in
  let token i = String.sub text starts.(i) (stops.(i) - starts.(i)) in
  let is i word =
    let len = String.length word in
    stops.(i) - starts.(i) = len
    &&
    let rec same j = j = len || (text.[starts.(i) + j] = word.[j] && same (j + 1)) in
    same 0
  in
  let resolve lineno i =
    let name = token i in
    match Dfg.Builder.find_opt b name with
    | Some id -> id
    | None -> fail lineno "unknown node %S in edge" name
  in
  let blank c = c = ' ' || c = '\t' in
  let rec line lineno start =
    let stop =
      match String.index_from_opt text start '\n' with Some i -> i | None -> n
    in
    let rec comment i = if i < stop && text.[i] <> '#' then comment (i + 1) else i in
    let stop_c = comment start in
    let count = ref 0 and i = ref start in
    while !i < stop_c && !count < 4 do
      if blank text.[!i] then incr i
      else begin
        starts.(!count) <- !i;
        while !i < stop_c && not (blank text.[!i]) do
          incr i
        done;
        stops.(!count) <- !i;
        incr count
      end
    done;
    (match !count with
    | 0 -> ()
    | 3 when is 0 "node" ->
        if stops.(2) - starts.(2) <> 1 then
          fail lineno "color must be a single character, got %S" (token 2);
        let color =
          try Color.of_char text.[starts.(2)]
          with Invalid_argument m -> fail lineno "%s" m
        in
        (try ignore (Dfg.Builder.add_node b ~name:(token 1) color)
         with Invalid_argument m -> fail lineno "%s" m)
    | 3 when is 0 "edge" -> (
        let dst = resolve lineno 2 in
        let src = resolve lineno 1 in
        try Dfg.Builder.add_edge b src dst
        with Invalid_argument m -> fail lineno "%s" m)
    | _ -> fail lineno "unknown directive %S" (token 0));
    if stop < n then line (lineno + 1) (stop + 1)
  in
  line 1 0;
  Dfg.Builder.build b

(* --- Graphviz DOT subset ----------------------------------------------- *)

(* Just enough DOT to read back the files [Dot.render] writes (and hand-kept
   figures like fig2_3dft.dot): one statement per line, node statements
   ["name" [attrs];], edge chains ["a" -> "b" -> "c";].  Attributes are
   ignored; the node's color is the first character of its name, which is
   the repo-wide naming convention the DOT renderer itself relies on. *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let strip_line_comment s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '/' && s.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with None -> s | Some i -> String.sub s 0 i

let strip_semi s =
  let s = String.trim s in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ';' then String.trim (String.sub s 0 (n - 1)) else s

(* [parse_name lineno s] reads a (possibly quoted) node name off the front
   of [s] and returns it with the trimmed remainder. *)
let parse_name lineno s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then fail lineno "expected a node name"
  else if s.[0] = '"' then
    match String.index_from_opt s 1 '"' with
    | None -> fail lineno "unterminated quoted name"
    | Some j ->
        (String.sub s 1 (j - 1), String.trim (String.sub s (j + 1) (n - j - 1)))
  else begin
    let j = ref 0 in
    while !j < n && is_ident_char s.[!j] do
      incr j
    done;
    if !j = 0 then fail lineno "expected a node name, got %S" s
    else (String.sub s 0 !j, String.trim (String.sub s !j (n - !j)))
  end

let split_arrows s =
  let n = String.length s in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '-' && s.[!i + 1] = '>' then begin
      parts := String.sub s !start (!i - !start) :: !parts;
      start := !i + 2;
      i := !i + 2
    end
    else incr i
  done;
  List.rev (String.sub s !start (n - !start) :: !parts)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let of_dot_string text =
  let b = Dfg.Builder.create () in
  let ids = Hashtbl.create 64 in
  (* Nodes get ids in first-appearance order, whether declared explicitly
     or implicitly by an edge — the standard DOT reading. *)
  let declare lineno name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        if name = "" then fail lineno "empty node name";
        let color =
          try Color.of_char name.[0]
          with Invalid_argument m -> fail lineno "%s" m
        in
        let id =
          try Dfg.Builder.add_node b ~name color
          with Invalid_argument m -> fail lineno "%s" m
        in
        Hashtbl.add ids name id;
        id
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = strip_semi (strip_comment (strip_line_comment raw)) in
      if line = "" || line = "{" || line = "}" then ()
      else if has_prefix ~prefix:"digraph" line || has_prefix ~prefix:"strict" line
      then ()
      else
        match split_arrows line with
        | [] -> ()
        | [ stmt ] -> (
            (* A lone statement: node declaration, attribute default
               ([node [...]], [edge [...]], [graph [...]]) or graph-level
               [key=value] — only the first declares anything. *)
            let name, rest = parse_name lineno stmt in
            match name with
            | "node" | "edge" | "graph" -> ()
            | _ when has_prefix ~prefix:"=" rest -> ()
            | _ -> ignore (declare lineno name))
        | _ :: _ :: _ as endpoints ->
            let names = List.map (fun p -> fst (parse_name lineno p)) endpoints in
            let rec chain = function
              | src :: (dst :: _ as rest) ->
                  (try
                     Dfg.Builder.add_edge b (declare lineno src)
                       (declare lineno dst)
                   with Invalid_argument m -> fail lineno "%s" m);
                  chain rest
              | _ -> ()
            in
            chain names)
    lines;
  Dfg.Builder.build b

(* Sniff the format: the first meaningful token of a DOT file is [digraph]
   (or [strict]); the native format starts with [node]/[edge].  Scans in
   place up to the first line with a token: a line's meaningful part ends
   at its first '#' or "//", and its tokens are separated by spaces and
   tabs, exactly as the parsers read them. *)
let is_dot text =
  let n = String.length text in
  let rec line start =
    let stop =
      match String.index_from_opt text start '\n' with Some i -> i | None -> n
    in
    let comment i =
      text.[i] = '#' || (text.[i] = '/' && i + 1 < stop && text.[i + 1] = '/')
    in
    let blank i = text.[i] = ' ' || text.[i] = '\t' in
    let rec skip i = if i < stop && blank i then skip (i + 1) else i in
    let first = skip start in
    if first = stop || comment first then stop < n && line (stop + 1)
    else begin
      let rec token_end i =
        if i = stop || blank i || comment i then i else token_end (i + 1)
      in
      let token = String.sub text first (token_end first - first) in
      String.starts_with ~prefix:"digraph" token || token = "strict"
    end
  in
  line 0

let of_string text =
  if is_dot text then of_dot_string text else of_native_string text

(* One pass into one buffer: node lines in id order, then edge lines
   walking each node's successor array, which is lexicographic edge
   order. *)
let to_string g =
  let n = Dfg.node_count g in
  let buf = Buffer.create (16 * (n + Dfg.edge_count g) + 16) in
  for i = 0 to n - 1 do
    let node = Dfg.node g i in
    Buffer.add_string buf "node ";
    Buffer.add_string buf node.Dfg.name;
    Buffer.add_char buf ' ';
    Buffer.add_char buf (Color.to_char node.Dfg.color);
    Buffer.add_char buf '\n'
  done;
  for s = 0 to n - 1 do
    let src = Dfg.name g s in
    Array.iter
      (fun d ->
        Buffer.add_string buf "edge ";
        Buffer.add_string buf src;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Dfg.name g d);
        Buffer.add_char buf '\n')
      (Dfg.succ_array g s)
  done;
  Buffer.contents buf

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path g = Dot.write_file ~path (to_string g)
