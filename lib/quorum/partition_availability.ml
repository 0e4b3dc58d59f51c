type fault_model = {
  p_up : float array;
  partition_probability : float;
  groups : int list list;
}

let uniform ~n ~p =
  { p_up = Array.make n p; partition_probability = 0.0; groups = [] }

(* Each site's side of the partition. Each unlisted site is its own
   singleton group (isolated), matching Network.partition — lumping them
   into one shared group would let them reach each other through the
   partition. *)
let group_of model =
  let n = Array.length model.p_up in
  let group_of = Array.make n (-1) in
  List.iteri
    (fun g sites -> List.iter (fun s -> if s < n then group_of.(s) <- g) sites)
    model.groups;
  let next = ref (List.length model.groups) in
  Array.iteri
    (fun s g ->
      if g = -1 then begin
        group_of.(s) <- !next;
        incr next
      end)
    group_of;
  group_of

let exact model ~client_site assignment ~op =
  let n = Array.length model.p_up in
  let sizes = Assignment.sizes_of assignment op in
  let need = max sizes.Assignment.initial sizes.Assignment.final in
  let group_of = group_of model in
  let p_part = model.partition_probability in
  let reaches count = if count >= need then 1.0 else 0.0 in
  (* Shannon expansion over the sites' up/down states: [whole] counts the
     up sites so far, [side] those on the client's side of the partition.
     The client's own site must be up. A site whose state cannot change the
     outcome contributes [p + (1 - p)], which is exactly 1. *)
  let rec sum s ~whole ~side =
    if s = n then ((1.0 -. p_part) *. reaches whole) +. (p_part *. reaches side)
    else
      let p = model.p_up.(s) in
      let up =
        p
        *. sum (s + 1) ~whole:(whole + 1)
             ~side:(if group_of.(s) = group_of.(client_site) then side + 1 else side)
      in
      if s = client_site then up else up +. ((1.0 -. p) *. sum (s + 1) ~whole ~side)
  in
  sum 0 ~whole:0 ~side:0
