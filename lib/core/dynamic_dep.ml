open Atomrep_history
open Atomrep_spec

let breaks_commutativity spec ~depth state e e' =
  match Serial_spec.apply_event spec state e, Serial_spec.apply_event spec state e' with
  | Some se, Some se' ->
    (match Serial_spec.apply_event spec se e', Serial_spec.apply_event spec se' e with
     | Some s1, Some s2 -> not (Serial_spec.state_equiv spec ~depth s1 s2)
     | None, _ | _, None -> true)
  | None, _ | _, None -> false

let non_commuting_witness spec ~max_len e e' =
  let depth = max_len + 2 in
  List.find_map
    (fun (hist, state) ->
      if breaks_commutativity spec ~depth state e e' then Some hist else None)
    (Serial_spec.reachable spec ~max_len)

let commute spec ~max_len e e' = Option.is_none (non_commuting_witness spec ~max_len e e')

let minimal ?(max_len = Relation.default_max_len) spec =
  let universe = Array.of_list (Serial_spec.event_universe spec ~max_len) in
  let states = List.map snd (Serial_spec.reachable spec ~max_len) in
  let depth = max_len + 2 in
  (* Commutativity of a pair only depends on the pair, so compute it once
     per unordered pair and add both oriented dependency pairs. *)
  let n = Array.length universe in
  let relation = ref Relation.empty in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let e = universe.(i) and e' = universe.(j) in
      if List.exists (fun state -> breaks_commutativity spec ~depth state e e') states then begin
        relation := Relation.add (e.Event.inv, e') !relation;
        relation := Relation.add (e'.Event.inv, e) !relation
      end
    done
  done;
  !relation
