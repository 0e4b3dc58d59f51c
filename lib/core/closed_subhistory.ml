open Atomrep_history

let executions h =
  (* (event, action, aborted?) in order *)
  let aborted = Behavioral.aborted h in
  List.filter_map
    (function
      | Behavioral.Exec (e, a) -> Some (e, a, Action.Set.mem a aborted)
      | Behavioral.Begin _ | Behavioral.Commit _ | Behavioral.Abort _ -> None)
    h

let is_closed rel h ~keep =
  let execs = Array.of_list (executions h) in
  let n = Array.length execs in
  let ok j =
    let e_j, _, aborted_j = execs.(j) in
    (not (keep j)) || aborted_j
    ||
    let rec earlier j' =
      j' >= j
      ||
      let e', _, aborted' = execs.(j') in
      (keep j' || aborted'
       || not (Relation.mem (e_j.Event.inv, e') rel))
      && earlier (j' + 1)
    in
    earlier 0
  in
  let rec go j = j >= n || (ok j && go (j + 1)) in
  go 0

let closure rel h selected =
  let execs = Array.of_list (executions h) in
  let n = Array.length execs in
  let keep = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then keep.(i) <- true) selected;
  let changed = ref true in
  while !changed do
    changed := false;
    for j = n - 1 downto 0 do
      if keep.(j) then begin
        let e_j, _, aborted_j = execs.(j) in
        if not aborted_j then
          for j' = 0 to j - 1 do
            let e', _, aborted' = execs.(j') in
            if (not keep.(j')) && (not aborted')
               && Relation.mem (e_j.Event.inv, e') rel
            then begin
              keep.(j') <- true;
              changed := true
            end
          done
      end
    done
  done;
  List.filter (fun j -> keep.(j)) (List.init n Fun.id)

let closed_selections rel h =
  let n = List.length (executions h) in
  let rec masks i =
    if i = n then [ [] ]
    else
      let rest = masks (i + 1) in
      List.map (fun s -> i :: s) rest @ rest
  in
  List.filter
    (fun selection ->
      let member j = List.mem j selection in
      is_closed rel h ~keep:member)
    (masks 0)

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
