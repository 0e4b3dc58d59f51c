type t = int

let empty = 0
let of_sites l = List.fold_left (fun acc s -> acc lor (1 lsl s)) 0 l

let sites t =
  let rec go i acc = if 1 lsl i > t then List.rev acc
    else go (i + 1) (if t land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 0 []

let cardinal t =
  let rec go t acc = if t = 0 then acc else go (t lsr 1) (acc + (t land 1)) in
  go t 0

let intersects a b = a land b <> 0
let subset a b = a land b = a
let union a b = a lor b
let inter a b = a land b
let is_empty t = t = 0
let mem s t = t land (1 lsl s) <> 0
let equal (a : t) b = a = b
let full n = (1 lsl n) - 1

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (sites t)

let all_of_size ~n k =
  let rec go from remaining acc =
    if remaining = 0 then [ acc ]
    else if from >= n then []
    else go (from + 1) (remaining - 1) (acc lor (1 lsl from)) @ go (from + 1) remaining acc
  in
  if k < 0 || k > n then [] else go 0 k 0
