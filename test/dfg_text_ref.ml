module Dfg = Mps_dfg.Dfg
module Color = Mps_dfg.Color

let to_string g =
  let buf = Buffer.create 256 in
  Dfg.iter_nodes
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "node %s %s\n" (Dfg.name g i) (Color.to_string (Dfg.color g i))))
    g;
  Dfg.iter_edges
    (fun s d ->
      Buffer.add_string buf (Printf.sprintf "edge %s %s\n" (Dfg.name g s) (Dfg.name g d)))
    g;
  Buffer.contents buf

let strip_comment s =
  match String.index_opt s '#' with
  | None -> s
  | Some i -> String.sub s 0 i

let strip_line_comment s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '/' && s.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with None -> s | Some i -> String.sub s 0 i

let tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_dot text =
  let rec go = function
    | [] -> false
    | l :: rest -> (
        match tokens (strip_comment (strip_line_comment l)) with
        | [] -> go rest
        | t :: _ -> has_prefix ~prefix:"digraph" t || t = "strict")
  in
  go (String.split_on_char '\n' text)

exception Parse_error = Mps_dfg.Parse.Parse_error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let of_native_string text =
  let b = Dfg.Builder.create () in
  let ids = Hashtbl.create 64 in
  let resolve lineno name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> fail lineno "unknown node %S in edge" name
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      match tokens (strip_comment raw) with
      | [] -> ()
      | [ "node"; name; color ] ->
          if String.length color <> 1 then
            fail lineno "color must be a single character, got %S" color;
          let color =
            try Color.of_char color.[0] with Invalid_argument m -> fail lineno "%s" m
          in
          let id =
            try Dfg.Builder.add_node b ~name color
            with Invalid_argument m -> fail lineno "%s" m
          in
          Hashtbl.add ids name id
      | [ "edge"; src; dst ] -> (
          try Dfg.Builder.add_edge b (resolve lineno src) (resolve lineno dst)
          with Invalid_argument m -> fail lineno "%s" m)
      | cmd :: _ -> fail lineno "unknown directive %S" cmd)
    lines;
  Dfg.Builder.build b
