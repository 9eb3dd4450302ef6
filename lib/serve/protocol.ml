module Json = Mps_util.Json

type source = Builtin of string | Dfg_text of string | Dot_text of string
type command = Select | Schedule | Pipeline | Certify | Portfolio | Edit | Stats

type edit =
  | Add_node of { node : string; color : string }
  | Remove_node of string
  | Add_edge of string * string
  | Remove_edge of string * string

let command_to_string = function
  | Select -> "select"
  | Schedule -> "schedule"
  | Pipeline -> "pipeline"
  | Certify -> "certify"
  | Portfolio -> "portfolio"
  | Edit -> "edit"
  | Stats -> "stats"

let command_of_string = function
  | "select" -> Some Select
  | "schedule" -> Some Schedule
  | "pipeline" -> Some Pipeline
  | "certify" -> Some Certify
  | "portfolio" -> Some Portfolio
  | "edit" -> Some Edit
  | "stats" -> Some Stats
  | _ -> None

type request = {
  id : Json.t option;
  command : command;
  source : source option;
  capacity : int option;
  span : int option;
  pdef : int option;
  priority : string option;
  strategy : string option;
  cluster : bool;
  budget : int option;
  max_nodes : int option;
  patterns : string list;
  edits : edit list;
}

let make ?id ?source ?capacity ?span ?pdef ?priority ?strategy
    ?(cluster = false) ?budget ?max_nodes ?(patterns = []) ?(edits = [])
    command =
  {
    id;
    command;
    source;
    capacity;
    span;
    pdef;
    priority;
    strategy;
    cluster;
    budget;
    max_nodes;
    patterns;
    edits;
  }

type error = { err_id : Json.t option; message : string }

let num n = Json.Num (float_of_int n)

let request_to_json r =
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  (match r.id with Some id -> add "id" id | None -> ());
  add "cmd" (Json.Str (command_to_string r.command));
  (match r.source with
  | Some (Builtin n) -> add "graph" (Json.Str n)
  | Some (Dfg_text t) -> add "dfg" (Json.Str t)
  | Some (Dot_text t) -> add "dot" (Json.Str t)
  | None -> ());
  if r.edits <> [] then
    add "edits"
      (Json.Arr
         (List.map
            (fun e ->
              Json.Obj
                (match e with
                | Add_node { node; color } ->
                    [
                      ("op", Json.Str "add_node");
                      ("node", Json.Str node);
                      ("color", Json.Str color);
                    ]
                | Remove_node n ->
                    [ ("op", Json.Str "remove_node"); ("node", Json.Str n) ]
                | Add_edge (s, d) ->
                    [
                      ("op", Json.Str "add_edge");
                      ("src", Json.Str s);
                      ("dst", Json.Str d);
                    ]
                | Remove_edge (s, d) ->
                    [
                      ("op", Json.Str "remove_edge");
                      ("src", Json.Str s);
                      ("dst", Json.Str d);
                    ]))
            r.edits));
  let opts = ref [] in
  let addo k v = opts := (k, v) :: !opts in
  (match r.capacity with Some c -> addo "capacity" (num c) | None -> ());
  (match r.span with Some s -> addo "span" (num s) | None -> ());
  (match r.pdef with Some p -> addo "pdef" (num p) | None -> ());
  (match r.priority with Some p -> addo "priority" (Json.Str p) | None -> ());
  (match r.strategy with Some s -> addo "strategy" (Json.Str s) | None -> ());
  if r.cluster then addo "cluster" (Json.Bool true);
  (match r.budget with Some b -> addo "budget" (num b) | None -> ());
  (match r.max_nodes with Some m -> addo "max_nodes" (num m) | None -> ());
  if r.patterns <> [] then
    addo "patterns" (Json.Arr (List.map (fun s -> Json.Str s) r.patterns));
  if !opts <> [] then add "options" (Json.Obj (List.rev !opts));
  Json.Obj (List.rev !fields)

(* Strict decoding: the wire shape is small enough that rejecting unknown
   keys costs nothing and turns every typo into a clear error instead of a
   silently-defaulted option.  The checks run in a fixed order and the
   first failure is the one reported, so the decoder raises [Reject] and
   [request_of_json] turns it into the error: a message that quotes a key
   is formatted only then. *)

exception Reject of string

let reject m = raise (Reject m)

(* The first binding of [key]. *)
let rec field key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

(* Refuses the first key [known] does not accept, in object order. *)
let rec only known message = function
  | [] -> ()
  | (k, _) :: rest -> if known k then only known message rest else reject (message k)

let request_key = function
  | "id" | "cmd" | "graph" | "dfg" | "dot" | "options" | "edits" -> true
  | _ -> false

let option_key = function
  | "capacity" | "span" | "pdef" | "priority" | "strategy" | "cluster"
  | "budget" | "max_nodes" | "patterns" ->
      true
  | _ -> false

let as_string key = function
  | Json.Str s -> s
  | _ -> reject (Printf.sprintf "%S must be a string" key)

let int_option opts key =
  match field key opts with
  | None -> None
  | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | Some _ -> reject (Printf.sprintf "%S must be an integer" key)

let string_option opts key = Option.map (as_string key) (field key opts)

let command_of_json = function
  | None -> reject "missing \"cmd\""
  | Some (Json.Str s) -> (
      match command_of_string s with
      | Some c -> c
      | None -> reject (Printf.sprintf "unknown command %S" s))
  | Some _ -> reject "\"cmd\" must be a string"

let source_of_fields command fields =
  match (field "graph" fields, field "dfg" fields, field "dot" fields, command) with
  | None, None, None, Stats -> None
  | None, None, None, _ ->
      reject "request needs a graph (\"graph\", \"dfg\" or \"dot\")"
  | _, _, _, Stats -> reject "\"stats\" takes no graph"
  | Some v, None, None, _ -> Some (Builtin (as_string "graph" v))
  | None, Some v, None, _ -> Some (Dfg_text (as_string "dfg" v))
  | None, None, Some v, _ -> Some (Dot_text (as_string "dot" v))
  | _ -> reject "give exactly one of \"graph\", \"dfg\", \"dot\""

(* Each edit is a strict little object — an "op" tag plus exactly the keys
   that op takes, same rejection discipline as the request itself. *)
let edit_of_json = function
  | Json.Obj o -> (
      let str key op =
        match field key o with
        | Some (Json.Str s) -> s
        | Some _ -> reject (Printf.sprintf "edit %S: %S must be a string" op key)
        | None -> reject (Printf.sprintf "edit %S needs %S" op key)
      in
      let keys op known =
        only known (fun k -> Printf.sprintf "edit %S: unknown key %S" op k) o
      in
      match str "op" "edit" with
      | "add_node" as op ->
          keys op (function "op" | "node" | "color" -> true | _ -> false);
          let node = str "node" op in
          let color = str "color" op in
          Add_node { node; color }
      | "remove_node" as op ->
          keys op (function "op" | "node" -> true | _ -> false);
          Remove_node (str "node" op)
      | ("add_edge" | "remove_edge") as op ->
          keys op (function "op" | "src" | "dst" -> true | _ -> false);
          let src = str "src" op in
          let dst = str "dst" op in
          if op = "add_edge" then Add_edge (src, dst) else Remove_edge (src, dst)
      | other -> reject (Printf.sprintf "unknown edit op %S" other))
  | _ -> reject "each edit must be a JSON object"

let decode id fields =
  only request_key (fun k -> Printf.sprintf "unknown request field %S" k) fields;
  let command = command_of_json (field "cmd" fields) in
  let source = source_of_fields command fields in
  let edits =
    match field "edits" fields with
    | None -> []
    | Some (Json.Arr items) -> List.map edit_of_json items
    | Some _ -> reject "\"edits\" must be an array of edit objects"
  in
  (match (command, edits) with
  | Edit, [] -> reject "\"edit\" needs a non-empty \"edits\" array"
  | Edit, _ :: _ | _, [] -> ()
  | _, _ :: _ -> reject "\"edits\" is only valid with cmd \"edit\"");
  let opts =
    match field "options" fields with
    | None -> []
    | Some (Json.Obj o) -> o
    | Some _ -> reject "\"options\" must be an object"
  in
  only option_key (fun k -> Printf.sprintf "unknown option %S" k) opts;
  let capacity = int_option opts "capacity" in
  let span = int_option opts "span" in
  let pdef = int_option opts "pdef" in
  let budget = int_option opts "budget" in
  let max_nodes = int_option opts "max_nodes" in
  let priority =
    match string_option opts "priority" with
    | (None | Some ("f1" | "f2")) as p -> p
    | Some other ->
        reject (Printf.sprintf "priority must be \"f1\" or \"f2\", not %S" other)
  in
  let strategy =
    match string_option opts "strategy" with
    | (None | Some ("eq8" | "auto")) as s -> s
    | Some other ->
        reject
          (Printf.sprintf "strategy must be \"eq8\" or \"auto\", not %S" other)
  in
  let cluster =
    match field "cluster" opts with
    | None -> false
    | Some (Json.Bool b) -> b
    | Some _ -> reject "\"cluster\" must be a boolean"
  in
  let patterns =
    match field "patterns" opts with
    | None -> []
    | Some (Json.Arr items) ->
        List.map
          (function
            | Json.Str s -> s
            | _ -> reject "\"patterns\" element must be a string")
          items
    | Some _ -> reject "\"patterns\" must be an array of strings"
  in
  {
    id;
    command;
    source;
    capacity;
    span;
    pdef;
    priority;
    strategy;
    cluster;
    budget;
    max_nodes;
    patterns;
    edits;
  }

let request_of_json = function
  | Json.Obj fields -> (
      let id = field "id" fields in
      match decode id fields with
      | r -> Ok r
      | exception Reject message -> Error { err_id = id; message })
  | _ -> Error { err_id = None; message = "request must be a JSON object" }

let request_to_line r = Json.to_line (request_to_json r)

let request_of_line ?known line =
  let known = Option.map (fun find -> ("dfg", find)) known in
  match Json.parse ?known line with
  | Ok j -> request_of_json j
  | Error m -> Error { err_id = None; message = "bad JSON: " ^ m }

let error_response ~id message =
  Json.Obj
    ((match id with Some id -> [ ("id", id) ] | None -> [])
    @ [ ("ok", Json.Bool false); ("error", Json.Str message) ])
