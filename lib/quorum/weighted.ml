type t = {
  weights : int array;
  ops : (string * (int * int)) list;
}

let make ~weights ops = { weights; ops }

let total_votes t = Array.fold_left ( + ) 0 t.weights

let votes_of t op =
  match List.assoc_opt op t.ops with
  | Some v -> v
  | None -> invalid_arg ("Weighted.votes_of: unknown operation " ^ op)

let live_votes t live =
  let acc = ref 0 in
  Array.iteri (fun i w -> if Quorum.mem i live then acc := !acc + w) t.weights;
  !acc

let op_available t ~live op =
  let vi, vf = votes_of t op in
  let v = live_votes t live in
  v >= vi && v >= vf

let satisfies t constraints =
  let total = total_votes t in
  List.for_all
    (fun (c : Op_constraint.t) ->
      let vi, _ = votes_of t c.dependent in
      let _, vf = votes_of t c.supplier in
      vi + vf > total)
    constraints

let availability_hetero t ~p_up op =
  let n = Array.length t.weights in
  let acc = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let live = Quorum.of_sites (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)) in
    if op_available t ~live op then begin
      let prob = ref 1.0 in
      for i = 0 to n - 1 do
        prob := !prob *. (if mask land (1 lsl i) <> 0 then p_up.(i) else 1.0 -. p_up.(i))
      done;
      acc := !acc +. !prob
    end
  done;
  !acc

let availability t ~p op =
  availability_hetero t ~p_up:(Array.make (Array.length t.weights) p) op

let enumerate ~weights ~ops constraints =
  let total = Array.fold_left ( + ) 0 weights in
  let k = List.length ops in
  let arr = Array.of_list ops in
  let index op =
    let rec find i =
      if i >= k then None else if String.equal arr.(i) op then Some i else find (i + 1)
    in
    find 0
  in
  let constraints =
    List.filter_map
      (fun (c : Op_constraint.t) ->
        match index c.dependent, index c.supplier with
        | Some d, Some s -> Some (d, s)
        | None, _ | _, None -> None)
      constraints
  in
  let chosen = Array.make k (0, 0) in
  let results = ref [] in
  let check_up_to m =
    List.for_all
      (fun (d, s) ->
        d > m || s > m || fst chosen.(d) + snd chosen.(s) > total)
      constraints
  in
  let rec assign i =
    if i = k then
      results :=
        { weights; ops = Array.to_list (Array.mapi (fun j v -> (arr.(j), v)) chosen) }
        :: !results
    else
      for vi = 0 to total do
        for vf = 0 to total do
          chosen.(i) <- (vi, vf);
          if check_up_to i then assign (i + 1)
        done
      done
  in
  assign 0;
  List.rev !results

let best_for_mix ~p_up ~mix assignments =
  let score a =
    let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
    List.fold_left
      (fun acc (op, w) -> acc +. (w /. total_weight *. availability_hetero a ~p_up op))
      0.0 mix
  in
  let cost a = List.fold_left (fun acc (_, (vi, vf)) -> acc + vi + vf) 0 a.ops in
  List.fold_left
    (fun best a ->
      match best with
      | None -> Some a
      | Some b ->
        let sa = score a and sb = score b in
        if sa > sb || (sa = sb && cost a < cost b) then Some a else best)
    None assignments
