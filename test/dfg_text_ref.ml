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
