module Dfg = Mps_dfg.Dfg

(* CSE key: opcode plus operand keys, commutative operands sorted. *)
type key = K of Opcode.t * okey list
and okey = KInput of string | KLit of float | KNode of int

let commutative = function
  | Opcode.Add | Opcode.Mul | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Min
  | Opcode.Max ->
      true
  | Opcode.Sub | Opcode.Neg | Opcode.Shl | Opcode.Shr | Opcode.Mac -> false

let lower ?(cse = true) bindings =
  let names = List.map fst bindings in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Lower.lower: duplicate output names";
  let builder = Dfg.Builder.create () in
  let instructions = ref [] in (* reversed; id order *)
  let count = ref 0 in
  let memo : (key, int) Hashtbl.t = Hashtbl.create 64 in
  let emit opcode operands =
    let okeys =
      Array.to_list operands
      |> List.map (function
           | Program.Input s -> KInput s
           | Program.Literal f -> KLit f
           | Program.Node j -> KNode j)
    in
    let okeys = if commutative opcode then List.sort compare okeys else okeys in
    let key = K (opcode, okeys) in
    match if cse then Hashtbl.find_opt memo key else None with
    | Some id -> id
    | None ->
        let id = Dfg.Builder.add_node builder (Opcode.color opcode) in
        assert (id = !count);
        incr count;
        Array.iter
          (function
            | Program.Node j -> Dfg.Builder.add_edge builder j id
            | Program.Input _ | Program.Literal _ -> ())
          operands;
        instructions := { Program.opcode; operands } :: !instructions;
        if cse then Hashtbl.add memo key id;
        id
  in
  (* Returns the operand denoting the expression's value. *)
  let rec go : Expr.t -> Program.operand = function
    | Expr.Var s -> Program.Input s
    | Expr.Const f -> Program.Literal f
    | Expr.Unop (op, e) ->
        let x = go e in
        Program.Node (emit op [| x |])
    | Expr.Binop (op, a, b) ->
        let x = go a in
        let y = go b in
        Program.Node (emit op [| x; y |])
  in
  let outputs =
    List.map
      (fun (name, e) ->
        let id =
          match go e with
          | Program.Node id -> id
          | (Program.Input _ | Program.Literal _) as trivial ->
              (* Give the bare value a node of its own: v + 0. *)
              emit Opcode.Add [| trivial; Program.Literal 0.0 |]
        in
        (name, id))
      bindings
  in
  let dfg = Dfg.Builder.build builder in
  let instructions = Array.of_list (List.rev !instructions) in
  Program.make ~dfg ~instructions ~outputs
