type entry =
  | Begin of Action.t
  | Exec of Event.t * Action.t
  | Commit of Action.t
  | Abort of Action.t

type t = entry list

let pp_entry ppf = function
  | Begin a -> Format.fprintf ppf "Begin %a" Action.pp a
  | Exec (e, a) -> Format.fprintf ppf "%a %a" Event.pp e Action.pp a
  | Commit a -> Format.fprintf ppf "Commit %a" Action.pp a
  | Abort a -> Format.fprintf ppf "Abort %a" Action.pp a

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_entry ppf t

let to_string t = Format.asprintf "%a" pp t

let action_of = function
  | Begin a | Exec (_, a) | Commit a | Abort a -> a

let well_formed t =
  let module M = Action.Map in
  (* status: 0 = unseen, 1 = begun, 2 = finished *)
  let rec go status = function
    | [] -> true
    | Begin a :: rest ->
      if M.mem a status then false else go (M.add a 1 status) rest
    | Exec (_, a) :: rest ->
      (match M.find_opt a status with
       | Some 1 -> go status rest
       | Some _ | None -> false)
    | (Commit a | Abort a) :: rest ->
      (match M.find_opt a status with
       | Some 1 -> go (M.add a 2 status) rest
       | Some _ | None -> false)
  in
  go M.empty t

let actions t =
  List.filter_map (function Begin a -> Some a | Exec _ | Commit _ | Abort _ -> None) t

let committed t =
  List.filter_map (function Commit a -> Some a | Begin _ | Exec _ | Abort _ -> None) t

let aborted t =
  List.fold_left
    (fun dead -> function
      | Abort a -> Action.Set.add a dead
      | Begin _ | Exec _ | Commit _ -> dead)
    Action.Set.empty t

let active t =
  let finished =
    List.fold_left
      (fun set -> function
        | Commit a | Abort a -> Action.Set.add a set
        | Begin _ | Exec _ -> set)
      Action.Set.empty t
  in
  List.filter (fun a -> not (Action.Set.mem a finished)) (actions t)

let begin_order t =
  let dead = aborted t in
  List.filter (fun a -> not (Action.Set.mem a dead)) (actions t)

let events_by_action t =
  List.fold_left
    (fun by -> function
      | Exec (e, a) ->
        Action.Map.update a (function None -> Some [ e ] | Some es -> Some (e :: es)) by
      | Begin _ | Commit _ | Abort _ -> by)
    Action.Map.empty (List.rev t)

let all_events t =
  List.filter_map
    (function Exec (e, a) -> Some (e, a) | Begin _ | Commit _ | Abort _ -> None)
    t

let live_events t =
  let dead = aborted t in
  List.filter (fun (_, a) -> not (Action.Set.mem a dead)) (all_events t)

let serialize t order =
  let by = events_by_action t in
  List.concat_map (fun a -> Option.value (Action.Map.find_opt a by) ~default:[]) order

let strip_aborted t =
  let dead = aborted t in
  if Action.Set.is_empty dead then t
  else List.filter (fun entry -> not (Action.Set.mem (action_of entry) dead)) t

let precedes_counts t =
  (* A precedes B when B executes an operation after A commits: B's
     predecessors are the actions whose Commit comes before B's last
     execution, a prefix of commit order. *)
  let rec go commits counts = function
    | [] -> counts
    | Exec (_, b) :: rest -> go commits (Action.Map.add b commits counts) rest
    | Commit a :: rest ->
      go (if Action.Map.mem a counts then commits + 1 else commits) counts rest
    | (Begin _ | Abort _) :: rest -> go commits counts rest
  in
  go 0 Action.Map.empty (strip_aborted t)

let of_script script =
  List.map
    (fun (name, step) ->
      let a = Action.of_string name in
      match step with
      | `Begin -> Begin a
      | `Commit -> Commit a
      | `Abort -> Abort a
      | `Exec e -> Exec (e, a))
    script
