open Atomrep_history

type t = {
  name : string;
  initial : Value.t;
  step : Value.t -> Event.Invocation.t -> (Event.Response.t * Value.t) list;
  invocations : Event.Invocation.t list;
}

let responses spec s inv = spec.step s inv

let apply_event spec s (e : Event.t) =
  let candidates = spec.step s e.inv in
  let matching = List.filter (fun (res, _) -> Event.Response.equal res e.res) candidates in
  match matching with
  | [] -> None
  | (_, s') :: _ -> Some s'

let run spec events =
  let rec go s = function
    | [] -> Some s
    | e :: rest ->
      (match apply_event spec s e with
       | None -> None
       | Some s' -> go s' rest)
  in
  go spec.initial events

let legal spec events = Option.is_some (run spec events)

let reachable spec ~max_len =
  (* Breadth-first over states, expanding invocations and responses in
     declaration order; each state keeps the first history that reaches it.
     Histories are stored reversed during expansion. *)
  let seen = Hashtbl.create 64 in
  let fresh (_, s) = (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true) in
  let expand (rev_hist, s) =
    List.concat_map
      (fun inv ->
        List.map (fun (res, s') -> (Event.make inv res :: rev_hist, s')) (spec.step s inv))
      spec.invocations
  in
  let rec levels frontier depth acc =
    let acc = List.rev_append frontier acc in
    if depth >= max_len || frontier = [] then acc
    else levels (List.filter fresh (List.concat_map expand frontier)) (depth + 1) acc
  in
  if max_len < 0 then []
  else
    levels (List.filter fresh [ ([], spec.initial) ]) 0 []
    |> List.rev_map (fun (rev_hist, s) -> (List.rev rev_hist, s))

let event_universe spec ~max_len =
  reachable spec ~max_len:(max_len - 1)
  |> List.concat_map (fun (_, s) ->
         List.concat_map
           (fun inv -> List.map (fun (res, _) -> Event.make inv res) (spec.step s inv))
           spec.invocations)
  |> List.sort_uniq Event.compare

let rec state_equiv spec ~depth s1 s2 =
  Value.equal s1 s2
  || depth = 0 (* no remaining experiment can distinguish the states *)
  || (depth > 0
      && List.for_all
           (fun inv ->
             let r1 = spec.step s1 inv and r2 = spec.step s2 inv in
             let sort =
               List.sort (fun (a, _) (b, _) -> Event.Response.compare a b)
             in
             let r1 = sort r1 and r2 = sort r2 in
             List.length r1 = List.length r2
             && List.for_all2
                  (fun (res1, s1') (res2, s2') ->
                    Event.Response.equal res1 res2
                    && state_equiv spec ~depth:(depth - 1) s1' s2')
                  r1 r2)
           spec.invocations)

let equivalent spec ~depth h1 h2 =
  match run spec h1, run spec h2 with
  | Some s1, Some s2 -> state_equiv spec ~depth s1 s2
  | None, _ | _, None -> false
