open Atomrep_history
open Atomrep_spec
open Atomrep_clock
module Ts = Lamport.Timestamp

(* Entries with equal sort keys fall back on descending (action, seq):
   the order a list classification gives them when it stably sorts a list
   built newest first, as the reference in test/test_view.ml does. *)
let tiebreak (e1 : Log.entry) (e2 : Log.entry) =
  let c = Action.compare e2.action e1.action in
  if c <> 0 then c else Int.compare e2.seq e1.seq

module Tentative = Set.Make (struct
  type t = Log.entry

  let compare (e1 : t) (e2 : t) =
    let c = Ts.compare e1.ets e2.ets in
    if c <> 0 then c else tiebreak e1 e2
end)

(* A committed entry with its action's commit timestamp. *)
type placed = { cts : Ts.t; entry : Log.entry }

let by_commit p1 p2 =
  let c = Ts.compare p1.cts p2.cts in
  if c <> 0 then c
  else
    let c = Ts.compare p1.entry.Log.ets p2.entry.Log.ets in
    if c <> 0 then c else tiebreak p1.entry p2.entry

(* The static serialization key. *)
let static_key (e1 : Log.entry) (e2 : Log.entry) =
  let c = Ts.compare e1.begin_ts e2.begin_ts in
  if c <> 0 then c else Int.compare e1.seq e2.seq

let by_begin p1 p2 =
  let c = static_key p1.entry p2.entry in
  if c <> 0 then c else by_commit p1 p2

(* Checkpoint spacing of the replay memo, in entries. *)
let every = 16

(* Replays [seq] from [state], stopping at the first illegal event. *)
let rec apply_all spec state seq =
  match state with
  | None -> None
  | Some s -> (
    match seq () with
    | Seq.Nil -> state
    | Seq.Cons ((e : Log.entry), rest) ->
      apply_all spec (Serial_spec.apply_event spec s e.event) rest)

(* The committed entries in one serialization order, with a replay memo:
   the spec state after an entry and every entry below it, checkpointed
   every [every] entries a replay walks, plus the last entry the latest
   replay reached (with its distance from the checkpoint before it). A
   change at an entry stales the states at and above it. *)
module Order (O : sig
  val compare : placed -> placed -> int
end) =
struct
  module S = Set.Make (struct
    type t = placed

    let compare = O.compare
  end)

  module M = Map.Make (struct
    type t = placed

    let compare = O.compare
  end)

  type t = {
    mutable set : S.t;
    mutable memo : Value.t option M.t;
    mutable last : (placed * Value.t option * int) option;
  }

  let create set = { set; memo = M.empty; last = None }

  let stale t p =
    (match M.max_binding_opt t.memo with
     | Some (k, _) when O.compare k p >= 0 ->
       let below, _, _ = M.split p t.memo in
       t.memo <- below
     | Some _ | None -> ());
    match t.last with
    | Some (k, _, _) when O.compare k p >= 0 -> t.last <- None
    | Some _ | None -> ()

  let add_all t = function
    | [] -> ()
    | ps ->
      let s = S.of_list ps in
      t.set <- S.union t.set s;
      stale t (S.min_elt s)

  let remove t p =
    t.set <- S.remove p t.set;
    stale t p

  (* The entries from the first one [from] holds for ([from] monotone). *)
  let from t from =
    match S.find_first_opt from t.set with
    | None -> Seq.empty
    | Some p -> S.to_seq_from p t.set

  (* The state after every entry [below] holds for ([below] holds up to
     some entry and not after it), leaving out the entries of [exclude]'s
     action, whose first entry in this order is given. The memo serves
     and learns only the prefix before that entry. *)
  let replay t spec ~below ~exclude =
    let memoized p =
      below p
      && match exclude with Some (_, first) -> O.compare p first < 0 | None -> true
    in
    let start =
      let checkpoint = M.find_last_opt memoized t.memo in
      match t.last, checkpoint with
      | Some (k, s, n), Some (k', _) when memoized k && O.compare k k' > 0 -> Some (k, s, n)
      | Some (k, s, n), None when memoized k -> Some (k, s, n)
      | _, checkpoint -> Option.map (fun (k, s) -> (k, s, 0)) checkpoint
    in
    let seq, state, since =
      match start with
      | None -> (S.to_seq t.set, Some spec.Serial_spec.initial, 0)
      | Some (k, s, n) -> (Seq.drop 1 (S.to_seq_from k t.set), s, n)
    in
    let rec walk seq state since last =
      match state, seq () with
      | Some s, Seq.Cons (p, rest) when memoized p ->
        let state = Serial_spec.apply_event spec s p.entry.Log.event in
        let since =
          if since + 1 < every then since + 1
          else begin
            t.memo <- M.add p state t.memo;
            0
          end
        in
        walk rest state since (Some p)
      | _ ->
        Option.iter (fun p -> t.last <- Some (p, state, since)) last;
        (seq, state)
    in
    let seq, state = walk seq state since None in
    match exclude with
    | None -> state
    | Some (action, _) ->
      Seq.take_while below seq
      |> Seq.filter_map (fun p ->
             if Action.equal p.entry.Log.action action then None else Some p.entry)
      |> apply_all spec state
end

module Commit_order = Order (struct
  let compare = by_commit
end)

module Begin_order = Order (struct
  let compare = by_begin
end)

(* An action's status in the view: an abort record outranks any commit
   record; two commit records keep the later timestamp. *)
type status = Committed of Ts.t | Aborted

(* The view: the statuses of the union of its logs and its entries
   classified. The Begin order is built the first time a static query
   asks for it. *)
type t = {
  spec : Serial_spec.t;
  status : (Action.t, status) Hashtbl.t;
  mutable tentative : Tentative.t;
  by_commit : Commit_order.t;
  mutable by_begin : Begin_order.t option;
}

let fresh spec =
  {
    spec;
    status = Hashtbl.create 16;
    tentative = Tentative.empty;
    by_commit = Commit_order.create Commit_order.S.empty;
    by_begin = None;
  }

(* An action's committed entries: contiguous in commit order, as they
   share its commit timestamp. *)
let committed_of v a cts =
  Commit_order.from v.by_commit (fun p -> Ts.compare p.cts cts >= 0)
  |> Seq.take_while (fun p -> Ts.equal p.cts cts)
  |> Seq.filter (fun p -> Action.equal p.entry.Log.action a)
  |> List.of_seq

(* Take an action's entries out of their class before its status changes. *)
let withdraw v a =
  match Hashtbl.find_opt v.status a with
  | Some Aborted -> []
  | None ->
    let mine = Tentative.filter (fun e -> Action.equal e.Log.action a) v.tentative in
    if not (Tentative.is_empty mine) then v.tentative <- Tentative.diff v.tentative mine;
    Tentative.elements mine
  | Some (Committed cts) ->
    let ps = committed_of v a cts in
    List.iter
      (fun p ->
        Commit_order.remove v.by_commit p;
        Option.iter (fun o -> Begin_order.remove o p) v.by_begin)
      ps;
    List.map (fun p -> p.entry) ps

(* Fold records into the view, statuses first, so that every entry is
   classified once, under its action's final status. An action whose
   status changes takes its entries out before the change and classifies
   them again with the new ones. An entry's class depends on its own
   action's status records alone, and the classes are sets, so the result
   is the classification of the union however the records come. Returns
   the number of records. *)
let fold v iter =
  let n = ref 0 and moved = ref [] in
  let withdraw a = moved := List.rev_append (withdraw v a) !moved in
  iter (fun r ->
      incr n;
      match r with
      | Log.Commit_record (a, ts) -> (
        match Hashtbl.find_opt v.status a with
        | Some Aborted -> ()
        | Some (Committed cts) when Ts.compare cts ts >= 0 -> ()
        | Some (Committed _) | None ->
          withdraw a;
          Hashtbl.replace v.status a (Committed ts))
      | Log.Abort_record a -> (
        match Hashtbl.find_opt v.status a with
        | Some Aborted -> ()
        | Some (Committed _) | None ->
          withdraw a;
          Hashtbl.replace v.status a Aborted)
      | Log.Entry _ | Log.Precommit _ | Log.Preabort _ -> ());
  let committed = ref [] and tentative = ref [] in
  let classify (e : Log.entry) =
    match Hashtbl.find_opt v.status e.action with
    | Some Aborted -> ()
    | Some (Committed cts) -> committed := { cts; entry = e } :: !committed
    | None -> tentative := e :: !tentative
  in
  List.iter classify !moved;
  iter (function
    | Log.Entry e -> classify e
    | Log.Commit_record _ | Log.Abort_record _ | Log.Precommit _ | Log.Preabort _ -> ());
  if !tentative <> [] then
    v.tentative <- Tentative.union v.tentative (Tentative.of_list !tentative);
  Commit_order.add_all v.by_commit !committed;
  Option.iter (fun o -> Begin_order.add_all o !committed) v.by_begin;
  !n

type cached = { mutable seen : Log.mark list; mutable view : t }

type cache = {
  cspec : Serial_spec.t;
  views : (int list, cached) Hashtbl.t;
  mutable folded : int;
}

let cache spec = { cspec = spec; views = Hashtbl.create 8; folded = 0 }
let folded c = c.folded

let gather c replies =
  let replies = List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2) replies in
  let sites = List.map fst replies and logs = List.map snd replies in
  let marks = List.map Log.mark logs in
  let build () =
    let v = fresh c.cspec in
    c.folded <- c.folded + fold v (fun f -> List.iter (Log.iter f) logs);
    v
  in
  match Hashtbl.find_opt c.views sites with
  | None ->
    let view = build () in
    Hashtbl.replace c.views sites { seen = marks; view };
    view
  | Some cached -> (
    let deltas = List.map2 Log.since cached.seen marks in
    if List.for_all Option.is_some deltas then begin
      let deltas = List.map Option.get deltas in
      c.folded <- c.folded + fold cached.view (fun f -> List.iter (List.iter f) deltas);
      cached.seen <- marks;
      cached.view
    end
    else
      let view = build () in
      (* A gather overtaken by a later one brings older logs: its view is
         built but does not evict the newer one. *)
      let older mark seen =
        match Log.since mark seen with Some (_ :: _) -> true | Some [] | None -> false
      in
      if not (List.exists2 older marks cached.seen) then begin
        cached.seen <- marks;
        cached.view <- view
      end;
      view)

let of_log spec log = gather (cache spec) [ (0, log) ]

let tentative v = Tentative.elements v.tentative

let committed v =
  List.map (fun p -> (p.cts, p.entry)) (Commit_order.S.elements v.by_commit.set)

let committed_events v = List.map (fun (_, e) -> e.Log.event) (committed v)
let find_tentative v f = Seq.find f (Tentative.to_seq v.tentative)

(* The first entry, in an order, of an action the view has committed. *)
let first_committed v order a =
  match Hashtbl.find_opt v.status a with
  | Some Aborted | None -> None
  | Some (Committed cts) -> (
    match List.sort order (committed_of v a cts) with
    | [] -> None
    | p :: _ -> Some (a, p))

let commit_state v ~exclude =
  Commit_order.replay v.by_commit v.spec
    ~below:(fun _ -> true)
    ~exclude:(first_committed v by_commit exclude)

let begin_order v =
  match v.by_begin with
  | Some o -> o
  | None ->
    let o = Begin_order.create (Begin_order.S.of_seq (Commit_order.S.to_seq v.by_commit.set)) in
    v.by_begin <- Some o;
    o

let earlier ~before (e : Log.entry) = Ts.compare e.begin_ts before < 0

(* Tentative entries other than [exclude]'s that [keep] holds for, in the
   static order; equal keys keep entry-timestamp order. *)
let pending v ~exclude keep =
  Tentative.elements v.tentative
  |> List.filter (fun (e : Log.entry) -> keep e && not (Action.equal e.action exclude))
  |> List.stable_sort static_key

(* Committed entries (a static-order sequence) and pending tentative ones
   merged into the static order: committed first on equal keys. *)
let rec interleave committed pending () =
  match pending with
  | [] -> committed ()
  | t :: ts -> (
    match committed () with
    | Seq.Cons (c, rest) when static_key c t <= 0 -> Seq.Cons (c, interleave rest pending)
    | node -> Seq.Cons (t, interleave (fun () -> node) ts))

let entries_except ~exclude placed =
  Seq.filter_map
    (fun p -> if Action.equal p.entry.Log.action exclude then None else Some p.entry)
    placed

let static_state v ~exclude ~before ~tentative =
  let o = begin_order v in
  let first = first_committed v by_begin exclude in
  let pending = pending v ~exclude (fun e -> earlier ~before e && tentative e.action) in
  match pending with
  | [] -> Begin_order.replay o v.spec ~below:(fun p -> earlier ~before p.entry) ~exclude:first
  | t0 :: _ ->
    (* The committed entries up to the first pending one come from the
       memo; the rest interleave with the pending entries. *)
    let state =
      Begin_order.replay o v.spec ~below:(fun p -> static_key p.entry t0 <= 0) ~exclude:first
    in
    let rest =
      Begin_order.from o (fun p -> static_key p.entry t0 > 0)
      |> Seq.take_while (fun p -> earlier ~before p.entry)
      |> entries_except ~exclude
    in
    apply_all v.spec state (interleave rest pending)

let static_later v ~exclude ~from ~tentative =
  let committed =
    Begin_order.from (begin_order v) (fun p -> not (earlier ~before:from p.entry))
    |> entries_except ~exclude
  in
  let pending =
    pending v ~exclude (fun e -> (not (earlier ~before:from e)) && tentative e.action)
  in
  List.of_seq (Seq.map (fun (e : Log.entry) -> e.event) (interleave committed pending))
