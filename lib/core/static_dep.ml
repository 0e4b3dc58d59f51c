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

   Each node keeps the least path that reaches it at its level, ordered by
   the base history's expansion choices and then the two split points.
   That order is preserved by extending both paths with the same moves,
   so the least hit at the first level with a hit is the least hit of all:
   the witness whose base history comes first in breadth-first order,
   then the earliest splits. *)

type path = {
  rev_hist : Event.t list;
  choices : (int * int) list;
      (* (invocation, response) index of each base event at its state *)
  i : int; (* |h1| once f is inserted *)
  j : int; (* |h1·h2| once s is inserted *)
}

let order p = (p.choices, p.i, p.j)

let search spec ~max_len f s =
  let apply = Serial_spec.apply_event spec in
  let cands = ref [] and hits = ref [] in
  (* Record a node reached at [depth], then the nodes its free moves reach. *)
  let rec reach depth node path =
    cands := (node, path) :: !cands;
    match node with
    | [ a ] -> Option.iter (fun af -> reach depth [ a; af ] { path with i = depth }) (apply a f)
    | [ a; af ] ->
      Option.iter
        (fun as_ ->
          let path = { path with j = depth } in
          match apply af s with
          | None -> hits := path :: !hits
          | Some afs -> reach depth [ a; af; as_; afs ] path)
        (apply a s)
    | _ -> ()
  in
  (* Extend a node by each event legal at a. *)
  let extend depth (node, path) =
    let a = List.hd node in
    List.iteri
      (fun k inv ->
        List.iteri
          (fun r (res, a') ->
            let x = Event.make inv res in
            let path =
              { path with rev_hist = x :: path.rev_hist; choices = path.choices @ [ (k, r) ] }
            in
            match List.map (fun st -> apply st x) (List.tl node) with
            | [] -> reach depth [ a' ] path
            | [ Some af' ] -> reach depth [ a'; af' ] path
            | [ Some _; Some _; None ] -> hits := path :: !hits
            | [ Some af'; Some as'; Some afs' ] -> reach depth [ a'; af'; as'; afs' ] path
            | _ -> ())
          (spec.Serial_spec.step a inv))
      spec.Serial_spec.invocations
  in
  let visited = Hashtbl.create 64 in
  let sort_by key = List.stable_sort (fun x y -> compare (key x) (key y)) in
  let rec levels depth =
    match sort_by order !hits with
    | hit :: _ -> Some hit
    | [] ->
      (* Keep each node new at this level with its least path. *)
      let frontier =
        List.filter
          (fun (node, _) -> (not (Hashtbl.mem visited node)) && (Hashtbl.add visited node (); true))
          (sort_by (fun (_, path) -> order path) !cands)
      in
      cands := [];
      if depth < max_len && frontier <> [] then begin
        List.iter (extend (depth + 1)) frontier;
        levels (depth + 1)
      end
      else None
  in
  reach 0 [ spec.Serial_spec.initial ] { rev_hist = []; choices = []; i = -1; j = -1 };
  levels 0

let minimal ?(max_len = Relation.default_max_len) spec =
  let universe = Serial_spec.event_universe spec ~max_len in
  List.fold_left
    (fun relation (f : Event.t) ->
      List.fold_left
        (fun relation (s : Event.t) ->
          let pairs = [ (f.inv, s); (s.inv, f) ] in
          if List.for_all (fun p -> Relation.mem p relation) pairs then relation
          else
            match search spec ~max_len f s with
            | Some _ -> List.fold_left (fun r p -> Relation.add p r) relation pairs
            | None -> relation)
        relation universe)
    Relation.empty universe

let witness spec ~max_len inv e =
  (* Either condition of the theorem, for any response to [inv]: the least
     hit by base history, splits, candidate event and then condition. *)
  let hits =
    List.concat
      (List.mapi
         (fun k (ev : Event.t) ->
           List.filter_map
             (fun (cond, (f, s)) ->
               Option.map
                 (fun p -> ((List.length p.choices, order p, k, cond), (ev, p)))
                 (search spec ~max_len f s))
             [ (0, (ev, e)); (1, (e, ev)) ])
         (List.filter
            (fun (ev : Event.t) -> Event.Invocation.equal ev.inv inv)
            (Serial_spec.event_universe spec ~max_len)))
  in
  match List.sort (fun (k1, _) (k2, _) -> compare k1 k2) hits with
  | [] -> None
  | (_, (ev, path)) :: _ ->
    let hist = List.rev path.rev_hist in
    let between lo hi = List.filteri (fun k _ -> lo <= k && k < hi) hist in
    Some (between 0 path.i, ev, between path.i path.j, between path.j (List.length hist))
