(* Bits are packed into OCaml native ints, word_bits per array cell.  The
   last word's unused high bits are kept at zero so cardinal/equal can work
   word-wise without masking. *)

let word_bits = Sys.int_size

type t = { words : int array; universe : int }

let words_for n = (n + word_bits - 1) / word_bits

let create universe =
  if universe < 0 then invalid_arg "Bitset.create: negative universe";
  { words = Array.make (words_for universe) 0; universe }

let universe t = t.universe

let full n =
  let t = create n in
  let nwords = Array.length t.words in
  if nwords > 0 then begin
    Array.fill t.words 0 nwords (-1);
    let rem = n mod word_bits in
    if rem <> 0 then t.words.(nwords - 1) <- (1 lsl rem) - 1
  end;
  t

let copy t = { t with words = Array.copy t.words }
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let check t i =
  if i < 0 || i >= t.universe then
    invalid_arg (Printf.sprintf "Bitset: element %d out of universe [0,%d)" i t.universe)

let add t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(* SWAR over the 62 low bits, plus the sign bit (bit 62) on its own: the
   masks are the usual 64-bit ones cut to 62 bits, and the byte sums fit the
   7 bits the multiply leaves above bit 56. *)
let popcount w =
  let x = w land max_int in
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  ((x * 0x0101010101010101) lsr 56) + if w < 0 then 1 else 0

(* De Bruijn multiplication: [w land (-w)] isolates the lowest set bit 2^k,
   and the top 6 bits of 2^k * debruijn (mod 2^63) differ for every k in
   0..62, so a 64-entry table maps them back to k. *)
let debruijn = 0x03f79d71b4cb0a89

let debruijn_index =
  let t = Array.make 64 (-1) in
  for k = 0 to word_bits - 1 do
    t.(((1 lsl k) * debruijn) lsr (word_bits - 6)) <- k
  done;
  t

let lowest_bit w = debruijn_index.(((w land -w) * debruijn) lsr (word_bits - 6))

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_universe a b =
  if a.universe <> b.universe then invalid_arg "Bitset: universe mismatch"

let equal a b =
  same_universe a b;
  a.words = b.words

let inter_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let inter a b =
  let r = copy a in
  inter_into ~dst:r b;
  r

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~dst:r b;
  r

let subset a b =
  same_universe a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let first_from t i =
  if i >= t.universe then None
  else begin
    let i = max i 0 in
    let rec scan_word wi carry_mask =
      if wi >= Array.length t.words then None
      else
        let w = t.words.(wi) land carry_mask in
        if w <> 0 then Some ((wi * word_bits) + lowest_bit w)
        else scan_word (wi + 1) (-1)
    in
    let wi = i / word_bits in
    scan_word wi (-1 lsl (i mod word_bits))
  end

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      f ((wi * word_bits) + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_words t = Array.copy t.words

let of_list n elems =
  let t = create n in
  List.iter (add t) elems;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements t)
