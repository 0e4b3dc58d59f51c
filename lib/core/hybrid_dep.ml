open Atomrep_history
open Atomrep_spec

type 'e step = Exec of 'e * int | Commit of int

type 'e config = {
  entries : ('e * int) list;
  commit_order : int list;
  nactions : int;
}

let empty_config = { entries = []; commit_order = []; nactions = 0 }

let map_step f = function
  | Exec (e, a) -> Exec (f e, a)
  | Commit a -> Commit a

let exec c e a = { c with entries = c.entries @ [ (e, a) ]; nactions = max c.nactions (a + 1) }
let commit c a = { c with commit_order = c.commit_order @ [ a ] }

let rec perms = function
  | [] -> [ [] ]
  | l ->
    List.concat
      (List.mapi
         (fun i x ->
           let rest = List.filteri (fun j _ -> j <> i) l in
           List.map (fun p -> x :: p) (perms rest))
         l)

let subsets l =
  List.fold_right (fun x acc -> List.concat_map (fun s -> [ s; x :: s ]) acc) l [ [] ]

let steps_of config =
  let entries = Array.of_list config.entries in
  let n = Array.length entries in
  let last_exec a =
    let idx = ref (-1) in
    Array.iteri (fun i (_, a') -> if a = a' then idx := i) entries;
    !idx
  in
  (* Earliest position of each Commit: after its action's last execution and
     after the previous Commit. [bunches.(i)] lists action ids whose Commit
     follows execution [i]. *)
  let bunches = Array.make (max n 1) [] in
  let pos = ref (-1) in
  List.iter
    (fun c ->
      pos := max (last_exec c) !pos;
      if !pos >= 0 then bunches.(!pos) <- bunches.(!pos) @ [ c ])
    config.commit_order;
  List.concat
    (List.init n (fun i ->
         let e, a = entries.(i) in
         Exec (e, a) :: List.map (fun c -> Commit c) bunches.(i)))

let project steps ~keep =
  let kept_actions = Hashtbl.create 8 in
  let idx = ref (-1) in
  let selected =
    List.filter_map
      (fun step ->
        match step with
        | Exec (_, a) ->
          incr idx;
          if keep !idx then begin
            Hashtbl.replace kept_actions a ();
            Some step
          end
          else None
        | Commit _ -> Some step)
      steps
  in
  List.filter
    (function
      | Exec _ -> true
      | Commit a -> Hashtbl.mem kept_actions a)
    selected

type counterexample = {
  history : Event.t step list;
  g_positions : int list;
  appended : Event.t;
  appended_action : int;
}

let pp_counterexample ppf ce =
  let pp_step ppf = function
    | Exec (e, a) -> Format.fprintf ppf "%a %a" Event.pp e Action.pp (Action.of_int a)
    | Commit a -> Format.fprintf ppf "Commit %a" Action.pp (Action.of_int a)
  in
  Format.fprintf ppf "H = [@[%a@]],@ G keeps positions {%a},@ appended %a %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_step)
    ce.history
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    ce.g_positions Event.pp ce.appended
    (fun ppf a -> Action.pp ppf (Action.of_int a))
    ce.appended_action

(* ------------------------------------------------------------------ *)
(* Membership: events are interned to integer ids and serial-history
   legality is answered by a trie whose nodes memoize reached states.  *)
(* ------------------------------------------------------------------ *)

type node = { state : Value.t option; children : (int, node) Hashtbl.t }

type engine = {
  spec : Serial_spec.t;
  universe : Event.t array;
  root : node;
  members : (int step list, bool) Hashtbl.t;
}

let engine spec universe =
  {
    spec;
    universe = Array.of_list universe;
    root = { state = Some spec.Serial_spec.initial; children = Hashtbl.create 16 };
    members = Hashtbl.create 4096;
  }

let child t node eid =
  match Hashtbl.find_opt node.children eid with
  | Some n -> n
  | None ->
    let state =
      match node.state with
      | None -> None
      | Some s -> Serial_spec.apply_event t.spec s t.universe.(eid)
    in
    let n = { state; children = Hashtbl.create 4 } in
    Hashtbl.add node.children eid n;
    n

(* The node after [ids] from [node]; an illegal node is final. *)
let descend t node ids =
  List.fold_left (fun n id -> if Option.is_none n.state then n else child t n id) node ids

let actives c =
  List.filter (fun a -> not (List.mem a c.commit_order)) (List.init c.nactions Fun.id)

let events_of_action c a =
  List.filter_map (fun (e, a') -> if a = a' then Some e else None) c.entries

(* Every serialization — the commits in order, then any unplaced active
   after any other — is legal iff every trie node a depth-first walk over
   those orders reaches is legal. *)
let hybrid_ok t c =
  let rec walk node unplaced =
    Option.is_some node.state
    && List.for_all
         (fun (b, ids) ->
           walk (descend t node ids) (List.filter (fun (b', _) -> b' <> b) unplaced))
         unplaced
  in
  walk
    (descend t t.root (List.concat_map (events_of_action c) c.commit_order))
    (List.map (fun b -> (b, events_of_action c b)) (actives c))

let steps_hybrid t steps =
  match Hashtbl.find_opt t.members steps with
  | Some b -> b
  | None ->
    let rec go c = function
      | [] -> true
      | Exec (eid, a) :: rest ->
        let c = exec c eid a in
        hybrid_ok t c && go c rest
      | Commit a :: rest -> go (commit c a) rest
    in
    let b = go empty_config steps in
    Hashtbl.add t.members steps b;
    b

(* ------------------------------------------------------------------ *)
(* Checker: enumerate Hybrid(T) configurations once and store
   relation-independent violation templates.                           *)
(* ------------------------------------------------------------------ *)

type template = {
  t_events : Event.t array;
  t_inv : Event.Invocation.t;
  t_gmask : int;
  t_steps : int step list;
  t_appended : Event.t;
  t_action : int;
}

type checker = { engine : engine; templates : template list; n_configs : int }

let enumerate_configs engine ~n_events ~max_events ~max_actions =
  let visited = Hashtbl.create 4096 in
  let out = ref [] in
  let rec visit c =
    if not (Hashtbl.mem visited c) then begin
      Hashtbl.add visited c ();
      out := c :: !out;
      if List.length c.entries < max_events then begin
        let act = actives c in
        let action_choices =
          if c.nactions < max_actions then act @ [ c.nactions ] else act
        in
        for eid = 0 to n_events - 1 do
          List.iter
            (fun a ->
              let ch = exec c eid a in
              if hybrid_ok engine ch then begin
                visit ch;
                (* Commit bunches led by the executing action (earliest
                   placement); committing never breaks membership. *)
                let others = List.filter (fun b -> b <> a) (actives ch) in
                List.iter
                  (fun s ->
                    List.iter
                      (fun p -> visit { ch with commit_order = ch.commit_order @ (a :: p) })
                      (perms s))
                  (subsets others)
              end)
            action_choices
        done
      end
    end
  in
  visit empty_config;
  List.rev !out

(* A signal to lower the bounds, far above any configuration in use. *)
let max_templates = 2_000_000

let templates_of_config engine ~n_events ~seen count emit c =
  let universe = engine.universe in
  let eids = List.map fst c.entries in
  let n = List.length eids in
  let events = lazy (Array.of_list (List.map (fun eid -> universe.(eid)) eids)) in
  let steps = steps_of c in
  let act = actives c in
  for eid = 0 to n_events - 1 do
    let ev = universe.(eid) in
    List.iter
      (fun a ->
        (* The appended action: any active, or one fresh action (always
           permitted — the paper's examples append via a fresh action). *)
        let extended = exec c eid a in
        if not (hybrid_ok engine extended) then
          (* H·[ev a] is outside Hybrid(T): any closed G that still accepts
             the event witnesses a violation. Record every subhistory
             selection whose extension stays hybrid. Distinct configurations
             frequently induce identical violation conditions, and the
             relation check only reads (events, invocation, gmask), so
             those are the deduplication key. *)
          for gmask = 0 to (1 lsl n) - 2 do
            let key = (eids, eid, gmask) in
            if not (Hashtbl.mem seen key) then begin
              let keep i = gmask land (1 lsl i) <> 0 in
              let gsteps = project steps ~keep @ [ Exec (eid, a) ] in
              if steps_hybrid engine gsteps then begin
                Hashtbl.add seen key ();
                incr count;
                if !count > max_templates then
                  failwith
                    "Hybrid_dep.make_checker: template budget exceeded; lower \
                     max_events/max_actions";
                emit
                  {
                    t_events = Lazy.force events;
                    t_inv = ev.Event.inv;
                    t_gmask = gmask;
                    t_steps = steps;
                    t_appended = ev;
                    t_action = a;
                  }
              end
            end
          done)
      (act @ [ c.nactions ])
  done

let make_checker ?universe spec ~max_events ~max_actions =
  let universe =
    match universe with
    | Some u -> u
    | None -> Serial_spec.event_universe spec ~max_len:max_events
  in
  let engine = engine spec universe in
  let n_events = Array.length engine.universe in
  let configs = enumerate_configs engine ~n_events ~max_events ~max_actions in
  let count = ref 0 in
  let seen = Hashtbl.create 4096 in
  let templates = ref [] in
  List.iter
    (templates_of_config engine ~n_events ~seen count (fun t -> templates := t :: !templates))
    configs;
  { engine; templates = List.rev !templates; n_configs = List.length configs }

let config_count checker = checker.n_configs
let template_count checker = List.length checker.templates

(* Definition 2's test of one template: G contains every event the appended
   invocation depends on, and G is closed (Definition 1). *)
let violates relation t =
  let n = Array.length t.t_events in
  let selected i = t.t_gmask land (1 lsl i) <> 0 in
  let rec deps_ok i =
    i >= n
    || ((selected i || not (Relation.mem (t.t_inv, t.t_events.(i)) relation))
       && deps_ok (i + 1))
  in
  deps_ok 0 && Closed_subhistory.is_closed relation t.t_events ~keep:selected

let verify checker relation =
  match List.find_opt (violates relation) checker.templates with
  | None -> Ok ()
  | Some t ->
    let n = Array.length t.t_events in
    let g_positions =
      List.filter (fun i -> t.t_gmask land (1 lsl i) <> 0) (List.init n Fun.id)
    in
    Error
      {
        history = List.map (map_step (fun eid -> checker.engine.universe.(eid))) t.t_steps;
        g_positions;
        appended = t.t_appended;
        appended_action = t.t_action;
      }

let is_hybrid_dependency checker relation = Result.is_ok (verify checker relation)

module Relation_set = Set.Make (Relation)
module Relation_map = Map.Make (Relation)

let minimal_hybrids checker ~base =
  if not (is_hybrid_dependency checker base) then []
  else begin
    let cache = ref Relation_map.empty in
    let valid rel =
      match Relation_map.find_opt rel !cache with
      | Some b -> b
      | None ->
        let b = is_hybrid_dependency checker rel in
        cache := Relation_map.add rel b !cache;
        b
    in
    let visited = ref Relation_set.empty in
    let results = ref [] in
    let rec go rel =
      if not (Relation_set.mem rel !visited) then begin
        visited := Relation_set.add rel !visited;
        let shrinkable =
          List.filter (fun p -> valid (Relation.remove p rel)) (Relation.elements rel)
        in
        match shrinkable with
        | [] ->
          if not (List.exists (Relation.equal rel) !results) then
            results := rel :: !results
        | _ -> List.iter (fun p -> go (Relation.remove p rel)) shrinkable
      end
    in
    go base;
    List.rev !results
  end
