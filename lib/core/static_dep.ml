open Atomrep_history
open Atomrep_spec

(* Theorem 6 for one ordered pair (f, s) — f inserted after h1, s after
   h2 — decided by a breadth-first search that runs the histories in
   lockstep as a tuple of spec states. A node is the tuple, whose length
   gives the phase: [a] while in h1, [a; a+f] while in h2 and
   [a; a+f; a+s; a+f+s] while in h3, where a is the state after the
   prefix of h1·h2·h3 read so far. Entering h2 and h3 costs nothing; each
   event of h1·h2·h3 costs one, so the level of a node is the length of
   the base history that reaches it. An event must keep every state of
   the tuple legal except the last, whose turning illegal is a hit.

   The search runs over interned states: each spec state it reaches gets
   an int id, by structural equality, and the state an event leads to is
   memoised per (id, event). A node packs its phase and up to four ids
   into one int. The graph lives for one call of [minimal] or [witness]
   and is shared by every pair that call searches. *)

(* The events a graph's transitions are indexed by, the interned states
   (the initial state is id 0), and the transitions asked for so far. *)
type graph = {
  spec : Serial_spec.t;
  events : Event.t array;
  index : (Event.t, int) Hashtbl.t; (* event -> its position in [events] *)
  ids : (Value.t, int) Hashtbl.t;
  mutable states : Value.t array; (* id -> state *)
  mutable next : int array array;
      (* id -> event -> the next state's id, [illegal] or [unknown] *)
  mutable moves : int array option array;
      (* id -> the base events legal at the state, in spec.step (invocation,
         response) order, each packed as [event lsl bits lor next id] *)
}

let illegal = -1
let unknown = -2

(* A node is [phase lor ids], the k-th id at bit [2 + k * bits]. *)
let bits = 15
let mask = (1 lsl bits) - 1
let node1 a = a lsl 2
let node2 a af = (((af lsl bits) lor a) lsl 2) lor 1

let node4 a af as_ afs =
  (((((((afs lsl bits) lor as_) lsl bits) lor af) lsl bits) lor a) lsl 2) lor 2

let phase node = node land 3
let part node k = (node lsr (2 + (k * bits))) land mask

let intern g v =
  match Hashtbl.find_opt g.ids v with
  | Some id -> id
  | None ->
    let id = Hashtbl.length g.ids in
    if id > mask then
      invalid_arg
        (Printf.sprintf "Static_dep: %s reaches more than %d states within the bound"
           g.spec.Serial_spec.name (mask + 1));
    if id = Array.length g.states then begin
      let grow a fill =
        let b = Array.make (2 * id) fill in
        Array.blit a 0 b 0 id;
        b
      in
      g.states <- grow g.states v;
      g.next <- grow g.next [||];
      g.moves <- grow g.moves None
    end;
    Hashtbl.add g.ids v id;
    g.states.(id) <- v;
    g.next.(id) <- Array.make (Array.length g.events) unknown;
    id

let graph spec events =
  let index = Hashtbl.create (Array.length events) in
  Array.iteri (fun k e -> Hashtbl.replace index e k) events;
  let g =
    { spec; events; index; ids = Hashtbl.create 64; states = [| spec.initial |];
      next = [| [||] |]; moves = [| None |] }
  in
  ignore (intern g spec.initial);
  g

(* The id of the state [ev] leads to from state [id], or [illegal]. *)
let step g id ev =
  let next = g.next.(id).(ev) in
  if next <> unknown then next
  else begin
    let next =
      match Serial_spec.apply_event g.spec g.states.(id) g.events.(ev) with
      | Some v -> intern g v
      | None -> illegal
    in
    g.next.(id).(ev) <- next;
    next
  end

(* The base events legal at state [id]. The search extends only nodes at
   levels below max_len, so each of these events is in the event universe
   and has a position in [g.events]. *)
let moves g id =
  match g.moves.(id) with
  | Some m -> m
  | None ->
    let st = g.states.(id) in
    let m =
      List.concat_map
        (fun inv ->
          List.map
            (fun (res, v) ->
              (Hashtbl.find g.index (Event.make inv res) lsl bits) lor intern g v)
            (g.spec.step st inv))
        g.spec.invocations
      |> Array.of_list
    in
    g.moves.(id) <- Some m;
    m

(* The edges of the search for events [f] and [s]. [reach node p] offers
   [node], labelled [p], to [visit] and follows its free moves if [visit]
   accepts it; [extend node p] follows each base event from [node]. [split]
   labels a free move and [move p c ev] the [c]-th base event, [ev]; [hit]
   receives the label of each hit. *)
let edges g f s ~visit ~hit ~split ~move =
  let rec reach node p =
    if visit node p then
      match phase node with
      | 0 ->
        let a = part node 0 in
        let af = step g a f in
        if af <> illegal then reach (node2 a af) (split p)
      | 1 ->
        let a = part node 0 and af = part node 1 in
        let as_ = step g a s in
        if as_ <> illegal then begin
          let p = split p in
          let afs = step g af s in
          if afs = illegal then hit p else reach (node4 a af as_ afs) p
        end
      | _ -> ()
  in
  let extend node p =
    let moves = moves g (part node 0) in
    for c = 0 to Array.length moves - 1 do
      let ev = moves.(c) lsr bits and a' = moves.(c) land mask in
      let p = move p c ev in
      match phase node with
      | 0 -> reach (node1 a') p
      | 1 ->
        let af' = step g (part node 1) ev in
        if af' <> illegal then reach (node2 a' af') p
      | _ ->
        let af' = step g (part node 1) ev in
        if af' <> illegal then begin
          let as' = step g (part node 2) ev in
          if as' <> illegal then begin
            let afs' = step g (part node 3) ev in
            if afs' = illegal then hit p else reach (node4 a' af' as' afs') p
          end
        end
    done
  in
  (reach, extend)

module Visited = Hashtbl.Make (Int)

exception Hit

(* Is there a hit for the pair at positions [f] and [s] of the graph's
   events? Only existence is asked, so nodes carry no path, each is
   visited once, at its least level, and the search stops at the first
   hit. *)
let related g ~max_len visited f s =
  Visited.clear visited;
  let next = ref [] in
  let visit node () =
    (not (Visited.mem visited node))
    && begin
      Visited.add visited node ();
      next := node :: !next;
      true
    end
  in
  let reach, extend =
    edges g f s ~visit ~hit:(fun () -> raise_notrace Hit) ~split:Fun.id ~move:(fun () _ _ -> ())
  in
  let rec levels depth =
    let frontier = !next in
    next := [];
    if depth < max_len && frontier <> [] then begin
      List.iter (fun node -> extend node ()) frontier;
      levels (depth + 1)
    end
  in
  match
    reach (node1 0) ();
    levels 0
  with
  | () -> false
  | exception Hit -> true

let minimal ?(max_len = Relation.default_max_len) spec =
  let g = graph spec (Array.of_list (Serial_spec.event_universe spec ~max_len)) in
  let visited = Visited.create 256 in
  let relation = ref Relation.empty in
  Array.iteri
    (fun fi (f : Event.t) ->
      Array.iteri
        (fun si (s : Event.t) ->
          let pairs = [ (f.inv, s); (s.inv, f) ] in
          if
            (not (List.for_all (fun p -> Relation.mem p !relation) pairs))
            && related g ~max_len visited fi si
          then relation := List.fold_left (fun r p -> Relation.add p r) !relation pairs)
        g.events)
    g.events;
  !relation

(* A witness search labels each node with the least path that reaches it
   at its level, ordered by the base history's choices (each base event's
   position among its state's moves) and then the two split points. That
   order is preserved by extending both paths with the same moves, so the
   least hit at the first level with a hit is the least hit of all: the
   witness whose base history comes first in breadth-first order, then
   the earliest splits. *)
type path = {
  rev_hist : int list;
  choices : int list;
  i : int; (* |h1| once f is inserted *)
  j : int; (* |h1·h2| once s is inserted *)
}

let order p = (p.choices, p.i, p.j)

let least g ~max_len f s =
  let cands = ref [] and hits = ref [] in
  let visit node p =
    cands := (node, p) :: !cands;
    true
  in
  let split p =
    let depth = List.length p.choices in
    if p.i < 0 then { p with i = depth } else { p with j = depth }
  in
  let move p c ev = { p with rev_hist = ev :: p.rev_hist; choices = p.choices @ [ c ] } in
  let reach, extend = edges g f s ~visit ~hit:(fun p -> hits := p :: !hits) ~split ~move in
  let visited = Visited.create 64 in
  let sort_by key = List.stable_sort (fun x y -> compare (key x) (key y)) in
  let rec levels depth =
    match sort_by order !hits with
    | hit :: _ -> Some hit
    | [] ->
      (* Keep each node new at this level with its least path. *)
      let frontier =
        List.filter
          (fun (node, _) ->
            (not (Visited.mem visited node)) && (Visited.add visited node (); true))
          (sort_by (fun (_, path) -> order path) !cands)
      in
      cands := [];
      if depth < max_len && frontier <> [] then begin
        List.iter (fun (node, p) -> extend node p) frontier;
        levels (depth + 1)
      end
      else None
  in
  reach (node1 0) { rev_hist = []; choices = []; i = -1; j = -1 };
  levels 0

let witness spec ~max_len inv e =
  (* Either condition of the theorem, for any response to [inv]: the least
     hit by base history, splits, candidate event and then condition. [e]
     need not be in the universe, so it gets a position of its own. *)
  let universe = Serial_spec.event_universe spec ~max_len in
  let events = if List.exists (Event.equal e) universe then universe else universe @ [ e ] in
  let g = graph spec (Array.of_list events) in
  let pos ev = Hashtbl.find g.index ev in
  let hits =
    List.concat
      (List.mapi
         (fun k (ev : Event.t) ->
           List.filter_map
             (fun (cond, (f, s)) ->
               Option.map
                 (fun p -> ((List.length p.choices, order p, k, cond), (ev, p)))
                 (least g ~max_len (pos f) (pos s)))
             [ (0, (ev, e)); (1, (e, ev)) ])
         (List.filter (fun (ev : Event.t) -> Event.Invocation.equal ev.inv inv) universe))
  in
  match List.sort (fun (k1, _) (k2, _) -> compare k1 k2) hits with
  | [] -> None
  | (_, (ev, path)) :: _ ->
    let hist = List.rev_map (fun k -> g.events.(k)) path.rev_hist in
    let between lo hi = List.filteri (fun k _ -> lo <= k && k < hi) hist in
    Some (between 0 path.i, ev, between path.i path.j, between path.j (List.length hist))
