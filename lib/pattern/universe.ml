module Color = Mps_dfg.Color

module Index = Hashtbl.Make (struct
  type t = Pattern.t

  let equal = Pattern.equal
  let hash = Pattern.hash
end)

type t = {
  index : int Index.t;
  mutable pats : Pattern.t array; (* id -> pattern; live in [0, n) *)
  mutable sizes : int array; (* id -> |p| *)
  mutable csets : Color.Set.t array; (* id -> distinct-color set *)
  mutable n : int;
}

let create ?(expected = 64) () =
  let cap = max 1 expected in
  {
    index = Index.create cap;
    pats = Array.make cap Pattern.empty;
    sizes = Array.make cap 0;
    csets = Array.make cap Color.Set.empty;
    n = 0;
  }

let cardinal u = u.n

let grow_to arr len fill =
  let a = Array.make len fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let ensure_capacity u need =
  let cap = Array.length u.pats in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    u.pats <- grow_to u.pats cap' Pattern.empty;
    u.sizes <- grow_to u.sizes cap' 0;
    u.csets <- grow_to u.csets cap' Color.Set.empty
  end

(* Interning with the derived facts supplied, so [merge] can copy the
   memoized fields of the source universe instead of recomputing them. *)
let intern_memoized u p ~size ~cset =
  match Index.find_opt u.index p with
  | Some id -> id
  | None ->
      let id = u.n in
      ensure_capacity u (id + 1);
      u.pats.(id) <- p;
      u.sizes.(id) <- size;
      u.csets.(id) <- Lazy.force cset;
      Index.add u.index p id;
      u.n <- id + 1;
      id

let intern u p =
  Pattern.Id.of_int
    (intern_memoized u p ~size:(Pattern.size p) ~cset:(lazy (Pattern.color_set p)))

let find u p = Option.map Pattern.Id.of_int (Index.find_opt u.index p)

let check u id name =
  let i = Pattern.Id.to_int id in
  if i >= u.n then
    invalid_arg (Printf.sprintf "Universe.%s: id %d not in universe (%d ids)" name i u.n);
  i

let pattern u id = u.pats.(check u id "pattern")
let size u id = u.sizes.(check u id "size")
let color_set u id = u.csets.(check u id "color_set")

let merge ~into other =
  Array.init other.n (fun i ->
      Pattern.Id.of_int
        (intern_memoized into other.pats.(i) ~size:other.sizes.(i)
           ~cset:(lazy other.csets.(i))))

let iter f u =
  for i = 0 to u.n - 1 do
    f (Pattern.Id.of_int i) u.pats.(i)
  done

let fold f u acc =
  let acc = ref acc in
  iter (fun id p -> acc := f id p !acc) u;
  !acc

let sorted_ids u =
  let ids = Array.init u.n Pattern.Id.of_int in
  Array.sort
    (fun a b ->
      Pattern.compare u.pats.(Pattern.Id.to_int a) u.pats.(Pattern.Id.to_int b))
    ids;
  ids
