type node = { id : int; name : string; color : Color.t }

type t = {
  node_list : node array;
  succ_arr : int array array;
  pred_arr : int array array;
  by_name : (string, int) Hashtbl.t;
  edge_count : int;
}

exception Cycle of string list

module Int_set = Set.Make (Int)

module Builder = struct
  type b_node = { b_name : string; b_color : Color.t; mutable b_succs : Int_set.t }

  type t = {
    mutable slots : b_node option array; (* doubling array, first [count] filled *)
    names : (string, int) Hashtbl.t;
    mutable count : int;
    mutable edges : int;
  }

  let create () = { slots = Array.make 16 None; names = Hashtbl.create 64; count = 0; edges = 0 }

  let add_node b ?name color =
    let id = b.count in
    let name =
      match name with
      | Some "" -> invalid_arg "Dfg.Builder.add_node: empty name"
      | Some n -> n
      | None -> Printf.sprintf "%s%d" (Color.to_string color) id
    in
    if Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Dfg.Builder.add_node: duplicate name %S" name);
    Hashtbl.add b.names name id;
    if id = Array.length b.slots then begin
      let grown = Array.make (2 * id) None in
      Array.blit b.slots 0 grown 0 id;
      b.slots <- grown
    end;
    b.slots.(id) <- Some { b_name = name; b_color = color; b_succs = Int_set.empty };
    b.count <- id + 1;
    id

  let find_opt b name = Hashtbl.find_opt b.names name

  let node_exn b id =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Dfg.Builder: unknown node id %d" id);
    match b.slots.(id) with
    | Some bn -> bn
    | None -> assert false

  let add_edge b src dst =
    if src = dst then
      invalid_arg (Printf.sprintf "Dfg.Builder.add_edge: self-loop on node %d" src);
    let s = node_exn b src in
    ignore (node_exn b dst);
    if not (Int_set.mem dst s.b_succs) then begin
      s.b_succs <- Int_set.add dst s.b_succs;
      b.edges <- b.edges + 1
    end

  (* Kahn's algorithm; on failure, extract one cycle by walking always-into
     the remaining (non-removable) subgraph. *)
  let check_acyclic nodes succ_arr =
    let n = Array.length nodes in
    let indeg = Array.make n 0 in
    Array.iter (fun succs -> Array.iter (fun d -> indeg.(d) <- indeg.(d) + 1) succs) succ_arr;
    let queue = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
    let removed = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      incr removed;
      Array.iter
        (fun d ->
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then Queue.add d queue)
        succ_arr.(i)
    done;
    if !removed <> n then begin
      (* The residue (positive in-degree) holds every cycle, but also the
         nodes that only hang below one, where a walk along successors
         dead-ends.  Peel those first, sinks upward: every node left has a
         successor left, so the walk must revisit a node, and that's a
         cycle.  A node the walk reaches from the first residual node
         always leads to a cycle, so peeling never changes the walk. *)
      let live = Array.map (fun d -> d > 0) indeg in
      let out = Array.make n 0 and preds = Array.make n [] in
      Array.iteri
        (fun s succs ->
          if live.(s) then
            Array.iter
              (fun d ->
                if live.(d) then begin
                  out.(s) <- out.(s) + 1;
                  preds.(d) <- s :: preds.(d)
                end)
              succs)
        succ_arr;
      let sinks = Queue.create () in
      Array.iteri (fun i k -> if live.(i) && k = 0 then Queue.add i sinks) out;
      while not (Queue.is_empty sinks) do
        let i = Queue.pop sinks in
        live.(i) <- false;
        List.iter
          (fun p ->
            out.(p) <- out.(p) - 1;
            if out.(p) = 0 then Queue.add p sinks)
          preds.(i)
      done;
      let in_residue i = live.(i) in
      let start =
        let rec find i = if in_residue i then i else find (i + 1) in
        find 0
      in
      let rec walk seen path i =
        if List.mem i seen then begin
          (* The walk revisited i: the cycle is the walked path from the
             first visit of i onward. *)
          let rec drop = function
            | [] -> []
            | j :: rest -> if j = i then j :: rest else drop rest
          in
          let cycle = drop (List.rev path) in
          raise (Cycle (List.map (fun j -> nodes.(j).name) cycle))
        end
        else
          let next =
            Array.to_list succ_arr.(i) |> List.find (fun d -> in_residue d)
          in
          walk (i :: seen) (i :: path) next
      in
      walk [] [] start
    end

  let build b =
    let n = b.count in
    let arr = Array.init n (fun i -> node_exn b i) in
    let node_list =
      Array.mapi (fun id bn -> { id; name = bn.b_name; color = bn.b_color }) arr
    in
    let succ_arr =
      Array.map (fun bn -> Array.of_list (Int_set.elements bn.b_succs)) arr
    in
    let pred_lists = Array.make n [] in
    (* Collect predecessors in decreasing source order so the final lists,
       built by cons, come out increasing. *)
    for src = n - 1 downto 0 do
      Array.iter (fun dst -> pred_lists.(dst) <- src :: pred_lists.(dst)) succ_arr.(src)
    done;
    let pred_arr = Array.map Array.of_list pred_lists in
    check_acyclic node_list succ_arr;
    let by_name = Hashtbl.copy b.names in
    { node_list; succ_arr; pred_arr; by_name; edge_count = b.edges }
end

let of_alist node_specs edge_specs =
  let b = Builder.create () in
  List.iter (fun (name, color) -> ignore (Builder.add_node b ~name color)) node_specs;
  let id_of name =
    match Builder.find_opt b name with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Dfg.of_alist: unknown node %S in edge" name)
  in
  List.iter (fun (src, dst) -> Builder.add_edge b (id_of src) (id_of dst)) edge_specs;
  Builder.build b

let node_count g = Array.length g.node_list
let edge_count g = g.edge_count

let node g id =
  if id < 0 || id >= node_count g then
    invalid_arg (Printf.sprintf "Dfg: node id %d out of range" id);
  g.node_list.(id)

let name g id = (node g id).name
let color g id = (node g id).color
let find g n = Hashtbl.find g.by_name n
let find_opt g n = Hashtbl.find_opt g.by_name n

let succs g id =
  ignore (node g id);
  Array.to_list g.succ_arr.(id)

let succ_array g id =
  ignore (node g id);
  g.succ_arr.(id)

let preds g id =
  ignore (node g id);
  Array.to_list g.pred_arr.(id)

let out_degree g id =
  ignore (node g id);
  Array.length g.succ_arr.(id)

let in_degree g id =
  ignore (node g id);
  Array.length g.pred_arr.(id)

let nodes g = List.init (node_count g) Fun.id
let sources g = List.filter (fun i -> in_degree g i = 0) (nodes g)
let sinks g = List.filter (fun i -> out_degree g i = 0) (nodes g)

let edges g =
  List.concat_map (fun src -> List.map (fun dst -> (src, dst)) (succs g src)) (nodes g)

let iter_nodes f g = List.iter f (nodes g)
let fold_nodes f g acc = List.fold_left (fun acc i -> f i acc) acc (nodes g)
let iter_edges f g = List.iter (fun (s, d) -> f s d) (edges g)

let color_counts g =
  let m =
    fold_nodes
      (fun i m ->
        let c = color g i in
        Color.Map.update c (fun v -> Some (Option.value v ~default:0 + 1)) m)
      g Color.Map.empty
  in
  Color.Map.bindings m

let colors g = List.map fst (color_counts g)

let equal a b =
  node_count a = node_count b
  && edge_count a = edge_count b
  && List.for_all
       (fun i ->
         match find_opt b (name a i) with
         | None -> false
         | Some j ->
             let names g id = List.sort String.compare (List.map (name g) (succs g id)) in
             Color.equal (color a i) (color b j) && List.equal String.equal (names a i) (names b j))
       (nodes a)

let reverse g =
  let b = Builder.create () in
  iter_nodes (fun i -> ignore (Builder.add_node b ~name:(name g i) (color g i))) g;
  iter_edges (fun s d -> Builder.add_edge b d s) g;
  Builder.build b

let induced g ids =
  let n = node_count g in
  let seen = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Dfg.induced: id out of range";
      if seen.(i) then invalid_arg "Dfg.induced: duplicate id";
      seen.(i) <- true)
    ids;
  let old_ids = Array.of_list ids in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun ni oi -> new_of_old.(oi) <- ni) old_ids;
  let b = Builder.create () in
  Array.iter (fun oi -> ignore (Builder.add_node b ~name:(name g oi) (color g oi))) old_ids;
  iter_edges
    (fun s d ->
      if new_of_old.(s) >= 0 && new_of_old.(d) >= 0 then
        Builder.add_edge b new_of_old.(s) new_of_old.(d))
    g;
  (Builder.build b, old_ids)

let pp_node g ppf id = Format.pp_print_string ppf (name g id)

let pp ppf g =
  Format.fprintf ppf "@[<v>dfg: %d nodes, %d edges@," (node_count g) (edge_count g);
  iter_nodes
    (fun i ->
      Format.fprintf ppf "%s:%a -> [%a]@," (name g i) Color.pp (color g i)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_node g))
        (succs g i))
    g;
  Format.fprintf ppf "@]"
