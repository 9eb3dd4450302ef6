type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitting --- *)

let hex = "0123456789abcdef"

(* Plain runs are copied whole; only quotes, backslashes and control
   characters are escaped. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* [escape_into] without the quotes: rare enough to copy, so the
   emitter's hot path stays one function. *)
let escaped s =
  let buf = Buffer.create (String.length s + 16) in
  escape_into buf s;
  Buffer.sub buf 1 (Buffer.length buf - 2)

(* The decimal digits of [n >= 0], written straight into the buffer. *)
let rec digits_into buf n =
  if n >= 10 then digits_into buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Integral values below 1e15 are exact ints, so a sign and their decimal
   digits are what ["%.0f"] prints, ["-0"] for negative zero included. *)
let number_into buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    digits_into buf (Float.to_int (Float.abs f))
  end
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let rec add_value ~sep buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> number_into buf f
  | Str s -> escape_into buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf sep;
          add_value ~sep buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      add_members_sep ~sep buf kvs;
      Buffer.add_char buf '}'

and add_members_sep ~sep buf kvs =
  List.iteri
    (fun i (k, x) ->
      if i > 0 then Buffer.add_string buf sep;
      escape_into buf k;
      Buffer.add_char buf ':';
      add_value ~sep buf x)
    kvs

(* Protocol lines are short: a small first buffer keeps a one-line
   render from allocating a kilobyte. *)
let render ~sep v =
  let buf = Buffer.create 256 in
  add_value ~sep buf v;
  Buffer.contents buf

(* Traces keep the newline separators for greppability; the serve protocol
   needs one value per line. *)
let to_string v = render ~sep:",\n" v
let to_line v = render ~sep:"," v
let add_members buf kvs = add_members_sep ~sep:"," buf kvs

(* --- parsing --- *)

exception Bad of int * string

let parse ?known s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let len = String.length word in
    let rec same i = i = len || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + len <= n && same 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The end of the plain run at [i]: the next quote or backslash. *)
  let rec plain i =
    if i < n && match String.unsafe_get s i with '"' | '\\' -> false | _ -> true then
      plain (i + 1)
    else i
  in
  (* The four hex digits at [!pos], exactly four: no sign, no
     underscore. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let rec go i code =
      if i = 4 then code
      else
        let d =
          match String.unsafe_get s (!pos + i) with
          | '0' .. '9' as c -> Char.code c - 48
          | 'a' .. 'f' as c -> Char.code c - 87
          | 'A' .. 'F' as c -> Char.code c - 55
          | _ -> fail "bad \\u escape"
        in
        go (i + 1) ((code lsl 4) lor d)
    in
    let code = go 0 0 in
    pos := !pos + 4;
    code
  in
  let string_body () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    if stop < n && s.[stop] = '"' then begin
      (* No escape: the body is one run. *)
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      pos := stop;
      let escaped c =
        incr pos;
        Buffer.add_char buf c
      in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "bad escape"
               else
                 match s.[!pos] with
                 | '"' -> escaped '"'
                 | '\\' -> escaped '\\'
                 | '/' -> escaped '/'
                 | 'n' -> escaped '\n'
                 | 'r' -> escaped '\r'
                 | 't' -> escaped '\t'
                 | 'b' -> escaped '\b'
                 | 'f' -> escaped '\012'
                 | 'u' ->
                     (* UTF-8, with a surrogate pair read as one code
                        point; a surrogate without its other half is
                        refused at its own four characters. *)
                     incr pos;
                     let at = !pos in
                     let lone () =
                       pos := at;
                       fail "bad \\u escape"
                     in
                     let code = hex4 () in
                     let code =
                       if code >= 0xD800 && code <= 0xDBFF then
                         if !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                         then begin
                           pos := !pos + 2;
                           match hex4 () with
                           | low when low >= 0xDC00 && low <= 0xDFFF ->
                               0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                           | _ -> lone ()
                           | exception Bad _ -> lone ()
                         end
                         else lone ()
                       else if code >= 0xDC00 && code <= 0xDFFF then lone ()
                       else code
                     in
                     Buffer.add_utf_8_uchar buf (Uchar.of_int code)
                 | _ -> fail "bad escape");
              go ()
          | _ ->
              let stop = plain !pos in
              Buffer.add_substring buf s !pos (stop - !pos);
              pos := stop;
              go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  (* RFC 8259's grammar, -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]?
     [0-9]+)?, refused where it breaks; out of range at its end. *)
  let digit () =
    !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
  in
  let digits () =
    if not (digit ()) then fail "malformed number";
    while digit () do
      incr pos
    done
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos
    else if not (digit ()) then fail "expected a number";
    if at '0' then begin
      incr pos;
      if digit () then fail "malformed number"
    end
    else digits ();
    if at '.' then begin
      incr pos;
      digits ()
    end;
    if at 'e' || at 'E' then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    let f = float_of_string (String.sub s start (!pos - start)) in
    if Float.is_finite f then f else fail "number out of range"
  in
  (* A string [find] recognises at its first byte is taken as [find]
     answers it, and nothing else is read. *)
  let rec known_value find =
    skip_ws ();
    match if at '"' then find s (!pos + 1) else None with
    | Some (v, stop) ->
        pos := stop + 1;
        Str v
    | None -> value ()
  and value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match String.unsafe_get s !pos with
      | '{' ->
          incr pos;
          skip_ws ();
          if at '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v =
                match known with
                | Some (key, find) when String.equal k key -> known_value find
                | _ -> value ()
              in
              skip_ws ();
              if at ',' then begin
                incr pos;
                members ((k, v) :: acc)
              end
              else if at '}' then begin
                incr pos;
                List.rev ((k, v) :: acc)
              end
              else fail "expected , or } in object"
            in
            Obj (members [])
          end
      | '[' ->
          incr pos;
          skip_ws ();
          if at ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              if at ',' then begin
                incr pos;
                elements (v :: acc)
              end
              else if at ']' then begin
                incr pos;
                List.rev (v :: acc)
              end
              else fail "expected , or ] in array"
            in
            Arr (elements [])
          end
      | '"' -> Str (string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
