let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let chunks k l =
  if k < 1 then invalid_arg "Listx.chunks: size must be >= 1";
  let rec split n acc = function
    | x :: rest when n > 0 -> split (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | l ->
        let chunk, rest = split k [] l in
        chunk :: go rest
  in
  go l
