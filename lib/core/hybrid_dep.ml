open Atomrep_history
open Atomrep_spec

type config = {
  entries : (Event.t * int) list;
  commit_order : int list;
  nactions : int;
}

type step = Exec of Event.t * int | Commit of int

let empty_config = { entries = []; commit_order = []; nactions = 0 }

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

(* ------------------------------------------------------------------ *)
(* Reference (uncached) implementations, used by the public API and as
   the oracle for the fast engine below.                               *)
(* ------------------------------------------------------------------ *)

let hybrid_ok spec config =
  let action = Action.of_int in
  Atomrep_atomicity.Atomicity.is_hybrid_atomic spec
    (List.init config.nactions (fun a -> Behavioral.Begin (action a))
    @ List.map (fun (e, a) -> Behavioral.Exec (e, action a)) config.entries
    @ List.map (fun a -> Behavioral.Commit (action a)) config.commit_order)

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

let config_of_steps steps =
  List.fold_left
    (fun config step ->
      match step with
      | Exec (e, a) ->
        {
          config with
          entries = config.entries @ [ (e, a) ];
          nactions = max config.nactions (a + 1);
        }
      | Commit a -> { config with commit_order = config.commit_order @ [ a ] })
    empty_config steps

let steps_hybrid spec steps =
  let rec go config = function
    | [] -> true
    | Exec (e, a) :: rest ->
      let config =
        {
          config with
          entries = config.entries @ [ (e, a) ];
          nactions = max config.nactions (a + 1);
        }
      in
      hybrid_ok spec config && go config rest
    | Commit a :: rest ->
      go { config with commit_order = config.commit_order @ [ a ] } rest
  in
  go empty_config steps

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
  history : step list;
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
(* Fast engine: events are interned to integer ids and serial-history
   legality is answered by a trie whose nodes memoize reached states.  *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  type node = { state : Value.t option; children : (int, node) Hashtbl.t }

  type t = {
    spec : Serial_spec.t;
    universe : Event.t array;
    root : node;
    gcache : (int list, bool) Hashtbl.t;
  }

  (* Internal configurations mirror [config] with interned events. *)
  type iconfig = { ient : (int * int) list; icommits : int list; inact : int }

  let iempty = { ient = []; icommits = []; inact = 0 }

  let create spec universe =
    {
      spec;
      universe = Array.of_list universe;
      root = { state = Some spec.Serial_spec.initial; children = Hashtbl.create 16 };
      gcache = Hashtbl.create 4096;
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

  let iactives c =
    List.filter (fun a -> not (List.mem a c.icommits)) (List.init c.inact Fun.id)

  let ievents_of_action c a =
    List.filter_map (fun (e, a') -> if a = a' then Some e else None) c.ient

  (* Every serialization — the commits in order, then any unplaced active
     after any other — is legal iff every trie node a depth-first walk
     over those orders reaches is legal. *)
  let ihybrid_ok t c =
    let rec walk node unplaced =
      Option.is_some node.state
      && List.for_all
           (fun (b, ids) ->
             walk (descend t node ids) (List.filter (fun (b', _) -> b' <> b) unplaced))
           unplaced
    in
    walk
      (descend t t.root (List.concat_map (ievents_of_action c) c.icommits))
      (List.map (fun b -> (b, ievents_of_action c b)) (iactives c))

  let iexec c eid a =
    { c with ient = c.ient @ [ (eid, a) ]; inact = max c.inact (a + 1) }

  (* Steps are encoded as ints: an execution (eid, a) as [eid * span + a],
     a Commit a as [-(a + 1)], where [span] bounds action ids. *)
  let span = 64

  let encode_steps isteps =
    List.map
      (function
        | `Exec (eid, a) -> (eid * span) + a
        | `Commit a -> -(a + 1))
      isteps

  let isteps_hybrid t isteps =
    let key = encode_steps isteps in
    match Hashtbl.find_opt t.gcache key with
    | Some b -> b
    | None ->
      let rec go c = function
        | [] -> true
        | `Exec (eid, a) :: rest ->
          let c = iexec c eid a in
          ihybrid_ok t c && go c rest
        | `Commit a :: rest -> go { c with icommits = c.icommits @ [ a ] } rest
      in
      let b = go iempty isteps in
      Hashtbl.add t.gcache key b;
      b
end

(* ------------------------------------------------------------------ *)
(* Checker: enumerate Hybrid(T) configurations once and store
   relation-independent violation templates.                           *)
(* ------------------------------------------------------------------ *)

type template = {
  t_events : Event.t array;
  t_inv : Event.Invocation.t;
  t_gmask : int;
  t_steps : step list;
  t_appended : Event.t;
  t_action : int;
}

type checker = {
  spec : Serial_spec.t;
  universe : Event.t list;
  templates : template list;
  n_configs : int;
}

let iconfig_key (c : Engine.iconfig) =
  let buf = Buffer.create 32 in
  List.iter
    (fun (e, a) ->
      Buffer.add_string buf (string_of_int e);
      Buffer.add_char buf '@';
      Buffer.add_string buf (string_of_int a);
      Buffer.add_char buf '|')
    c.ient;
  Buffer.add_char buf '#';
  List.iter
    (fun a ->
      Buffer.add_string buf (string_of_int a);
      Buffer.add_char buf ',')
    c.icommits;
  Buffer.contents buf

(* Canonical earliest-commit steps of an internal configuration, as the
   polymorphic-variant encoding used by the engine. *)
let isteps_of (c : Engine.iconfig) =
  let entries = Array.of_list c.ient in
  let n = Array.length entries in
  let last_exec a =
    let idx = ref (-1) in
    Array.iteri (fun i (_, a') -> if a = a' then idx := i) entries;
    !idx
  in
  let bunches = Array.make (max n 1) [] in
  let pos = ref (-1) in
  List.iter
    (fun cmt ->
      pos := max (last_exec cmt) !pos;
      if !pos >= 0 then bunches.(!pos) <- bunches.(!pos) @ [ cmt ])
    c.icommits;
  List.concat
    (List.init n (fun i ->
         let e, a = entries.(i) in
         `Exec (e, a) :: List.map (fun cmt -> `Commit cmt) bunches.(i)))

let iproject isteps ~keep =
  let kept_actions = Hashtbl.create 8 in
  let idx = ref (-1) in
  let selected =
    List.filter_map
      (fun s ->
        match s with
        | `Exec (_, a) ->
          incr idx;
          if keep !idx then begin
            Hashtbl.replace kept_actions a ();
            Some s
          end
          else None
        | `Commit _ -> Some s)
      isteps
  in
  List.filter
    (function `Exec _ -> true | `Commit a -> Hashtbl.mem kept_actions a)
    selected

let enumerate_configs engine ~n_events ~max_events ~max_actions =
  let visited = Hashtbl.create 4096 in
  let out = ref [] in
  let rec visit (c : Engine.iconfig) =
    let key = iconfig_key c in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      out := c :: !out;
      if List.length c.ient < max_events then begin
        let act = Engine.iactives c in
        let action_choices =
          if c.inact < max_actions then act @ [ c.inact ] else act
        in
        for eid = 0 to n_events - 1 do
          List.iter
            (fun a ->
              let ch = Engine.iexec c eid a in
              if Engine.ihybrid_ok engine ch then begin
                visit ch;
                (* Commit bunches led by the executing action (earliest
                   placement); committing never breaks membership. *)
                let others = List.filter (fun b -> b <> a) (Engine.iactives ch) in
                List.iter
                  (fun s ->
                    List.iter
                      (fun p ->
                        visit { ch with icommits = ch.icommits @ (a :: p) })
                      (perms s))
                  (subsets others)
              end)
            action_choices
        done
      end
    end
  in
  visit Engine.iempty;
  List.rev !out

let public_steps universe isteps =
  List.map
    (function
      | `Exec (eid, a) -> Exec (universe.(eid), a)
      | `Commit a -> Commit a)
    isteps

(* A signal to lower the bounds, far above any configuration in use. *)
let max_templates = 2_000_000

let templates_of_config engine universe ~n_events ~seen count emit
    (c : Engine.iconfig) =
  let entries = Array.of_list c.ient in
  let n = Array.length entries in
  let events = lazy (Array.map (fun (eid, _) -> universe.(eid)) entries) in
  let isteps = isteps_of c in
  let steps = lazy (public_steps universe isteps) in
  (* Key for eager deduplication: distinct configurations frequently induce
     identical violation conditions, and the relation check only reads
     (events, invocation, gmask). *)
  let entries_key =
    String.concat ";"
      (List.map (fun (eid, _) -> string_of_int eid) c.ient)
  in
  let act = Engine.iactives c in
  for eid = 0 to n_events - 1 do
    let ev = universe.(eid) in
    List.iter
      (fun a ->
        (* The appended action: any active, or one fresh action (always
           permitted — the paper's examples append via a fresh action). *)
        let extended = Engine.iexec c eid a in
        if not (Engine.ihybrid_ok engine extended) then
          (* H·[ev a] is outside Hybrid(T): any closed G that still accepts
             the event witnesses a violation. Record every subhistory
             selection whose extension stays hybrid. *)
          for gmask = 0 to (1 lsl n) - 2 do
            let key = entries_key ^ "!" ^ string_of_int eid ^ "!" ^ string_of_int gmask in
            if not (Hashtbl.mem seen key) then begin
              let keep i = gmask land (1 lsl i) <> 0 in
              let gsteps = iproject isteps ~keep @ [ `Exec (eid, a) ] in
              if Engine.isteps_hybrid engine gsteps then begin
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
                    t_steps = Lazy.force steps;
                    t_appended = ev;
                    t_action = a;
                  }
              end
            end
          done)
      (act @ [ c.inact ])
  done

let make_checker ?universe spec ~max_events ~max_actions =
  let universe =
    match universe with
    | Some u -> u
    | None -> Serial_spec.event_universe spec ~max_len:max_events
  in
  let universe_arr = Array.of_list universe in
  let n_events = Array.length universe_arr in
  if max_actions + 1 >= Engine.span then invalid_arg "Hybrid_dep: max_actions too large";
  let engine = Engine.create spec universe in
  let configs = enumerate_configs engine ~n_events ~max_events ~max_actions in
  let count = ref 0 in
  let seen = Hashtbl.create 4096 in
  let templates = ref [] in
  List.iter
    (templates_of_config engine universe_arr ~n_events ~seen count
       (fun t -> templates := t :: !templates))
    configs;
  { spec; universe; templates = List.rev !templates; n_configs = List.length configs }

let config_count checker = checker.n_configs
let template_count checker = List.length checker.templates

let violates relation t =
  let n = Array.length t.t_events in
  let selected i = t.t_gmask land (1 lsl i) <> 0 in
  (* G must contain every event the appended invocation depends on. *)
  let deps_ok =
    let required i =
      selected i || not (Relation.mem (t.t_inv, t.t_events.(i)) relation)
    in
    let rec go i = i >= n || (required i && go (i + 1)) in
    go 0
  in
  (* G must be closed: a selected event pulls in every earlier event it
     depends on (Definition 1). *)
  let closed =
    let pulls_in j j' =
      Relation.mem (t.t_events.(j).Event.inv, t.t_events.(j')) relation
    in
    let ok_at j =
      (not (selected j))
      || (let rec inner j' =
            j' >= j || ((selected j' || not (pulls_in j j')) && inner (j' + 1))
          in
          inner 0)
    in
    let rec go j = j >= n || (ok_at j && go (j + 1)) in
    go 0
  in
  deps_ok && closed

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
        history = t.t_steps;
        g_positions;
        appended = t.t_appended;
        appended_action = t.t_action;
      }

let is_hybrid_dependency checker relation = Result.is_ok (verify checker relation)

let minimal_hybrids checker ~base =
  if not (is_hybrid_dependency checker base) then []
  else begin
    let cache = Hashtbl.create 256 in
    let key rel =
      String.concat "|"
        (List.map
           (fun (inv, e) -> Event.Invocation.to_string inv ^ ">=" ^ Event.to_string e)
           (Relation.elements rel))
    in
    let valid rel =
      let k = key rel in
      match Hashtbl.find_opt cache k with
      | Some b -> b
      | None ->
        let b = is_hybrid_dependency checker rel in
        Hashtbl.add cache k b;
        b
    in
    let visited = Hashtbl.create 256 in
    let results = ref [] in
    let rec go rel =
      let k = key rel in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.add visited k ();
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
