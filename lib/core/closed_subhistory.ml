open Atomrep_history

let is_closed rel events ~keep =
  let n = Array.length events in
  let ok j =
    (not (keep j))
    ||
    let inv = events.(j).Event.inv in
    let rec earlier j' =
      j' >= j
      || ((keep j' || not (Relation.mem (inv, events.(j')) rel)) && earlier (j' + 1))
    in
    earlier 0
  in
  let rec go j = j >= n || (ok j && go (j + 1)) in
  go 0

let is_closed_history rel h ~keep =
  (* Aborted executions are exempt on both sides of the condition, so drop
     them, remembering each live execution's index among [h]'s executions. *)
  let aborted = Behavioral.aborted h in
  let live =
    Behavioral.all_events h
    |> List.mapi (fun i (e, a) -> (i, e, a))
    |> List.filter_map (fun (i, e, a) ->
         if Action.Set.mem a aborted then None else Some (i, e))
    |> Array.of_list
  in
  is_closed rel (Array.map snd live) ~keep:(fun k -> keep (fst live.(k)))

let subhistory h ~keep =
  let idx = ref (-1) in
  let kept_actions = ref Action.Set.empty in
  let selected =
    List.filter
      (function
        | Behavioral.Exec (_, a) ->
          incr idx;
          if keep !idx then begin
            kept_actions := Action.Set.add a !kept_actions;
            true
          end
          else false
        | Behavioral.Begin _ | Behavioral.Commit _ | Behavioral.Abort _ -> true)
      h
  in
  List.filter
    (function
      | Behavioral.Exec (_, _) -> true
      | Behavioral.Begin a | Behavioral.Commit a | Behavioral.Abort a ->
        Action.Set.mem a !kept_actions)
    selected
