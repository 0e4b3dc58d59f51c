open Atomrep_history
open Atomrep_clock

type entry = {
  ets : Lamport.Timestamp.t;
  action : Action.t;
  begin_ts : Lamport.Timestamp.t;
  seq : int;
  event : Event.t;
}

type record =
  | Entry of entry
  | Commit_record of Action.t * Lamport.Timestamp.t
  | Abort_record of Action.t
  | Precommit of Action.t * Lamport.Timestamp.t
  | Preabort of Action.t

module Record_ord = struct
  type t = record

  let rank = function
    | Entry _ -> 0
    | Commit_record _ -> 1
    | Abort_record _ -> 2
    | Precommit _ -> 3
    | Preabort _ -> 4

  let compare a b =
    match a, b with
    | Entry e1, Entry e2 ->
      let c = Lamport.Timestamp.compare e1.ets e2.ets in
      if c <> 0 then c
      else begin
        let c = Action.compare e1.action e2.action in
        if c <> 0 then c else Int.compare e1.seq e2.seq
      end
    | Commit_record (a1, t1), Commit_record (a2, t2)
    | Precommit (a1, t1), Precommit (a2, t2) ->
      let c = Action.compare a1 a2 in
      if c <> 0 then c else Lamport.Timestamp.compare t1 t2
    | Abort_record a1, Abort_record a2 | Preabort a1, Preabort a2 ->
      Action.compare a1 a2
    | x, y -> Int.compare (rank x) (rank y)
end

module S = Set.Make (Record_ord)

(* The record set is the log; the four status indexes are a function of
   it, kept so that classifying an entry is a lookup rather than a scan.
   Status records are never dropped ([gc] and [stable] only filter
   entries), so the indexes never shrink. Two commit (or precommit)
   records for one action keep the later timestamp.

   The journal is the log's history since its lineage began: [records] is
   the lineage's base set plus [journal], newest first, and [count] is the
   journal's length. Only [add] extends a journal. Every other way of
   making a log from another ([merge], and [gc] or [stable] when they drop
   a record) starts a fresh lineage whose base is the result, so two logs
   of one lineage share their base. The empty log's lineage (0) has the
   empty base. *)
type t = {
  records : S.t;
  commits : Lamport.Timestamp.t Action.Map.t;
  aborts : Action.Set.t;
  precommits : Lamport.Timestamp.t Action.Map.t;
  preaborts : Action.Set.t;
  lineage : int;
  count : int;
  journal : record list;
}

let empty =
  {
    records = S.empty;
    commits = Action.Map.empty;
    aborts = Action.Set.empty;
    precommits = Action.Map.empty;
    preaborts = Action.Set.empty;
    lineage = 0;
    count = 0;
    journal = [];
  }

(* Atomic: sweeps run simulations on several domains at once. *)
let lineages = Atomic.make 1
let rebase t = { t with lineage = Atomic.fetch_and_add lineages 1; count = 0; journal = [] }

let later t1 t2 = if Lamport.Timestamp.compare t1 t2 >= 0 then t1 else t2

let note_ts index a ts =
  Action.Map.update a
    (function Some ts' -> Some (later ts' ts) | None -> Some ts)
    index

let add t r =
  let records = S.add r t.records in
  if records == t.records then t
  else begin
    let t = { t with records; count = t.count + 1; journal = r :: t.journal } in
    match r with
    | Entry _ -> t
    | Commit_record (a, ts) -> { t with commits = note_ts t.commits a ts }
    | Abort_record a -> { t with aborts = Action.Set.add a t.aborts }
    | Precommit (a, ts) -> { t with precommits = note_ts t.precommits a ts }
    | Preabort a -> { t with preaborts = Action.Set.add a t.preaborts }
  end

type mark = { lineage : int; count : int; journal : record list }

let mark (t : t) = { lineage = t.lineage; count = t.count; journal = t.journal }

(* [m]'s journal holds [old]'s, physically, under [m.count - old.count]
   newer records: then [m]'s log is [old]'s plus exactly those records. A
   mark that shares [old]'s lineage but not its journal cells branched
   off an ancestor, and answers [None]. *)
let since old m =
  if m.lineage <> old.lineage || m.count < old.count then None
  else
    let rec take n journal acc =
      if n = 0 then if journal == old.journal then Some acc else None
      else
        match journal with
        | r :: rest -> take (n - 1) rest (r :: acc)
        | [] -> None
    in
    take (m.count - old.count) m.journal []

(* Folds the smaller index into the larger. Quorum replies mostly know
   the same statuses, so a merge allocates only for the ones that differ. *)
let absorb ~cardinal ~fold ~add i1 i2 =
  let big, small = if cardinal i1 >= cardinal i2 then (i1, i2) else (i2, i1) in
  fold add small big

let merge t1 t2 =
  let union_ts =
    absorb ~cardinal:Action.Map.cardinal ~fold:Action.Map.fold
      ~add:(fun a ts m -> note_ts m a ts)
  in
  let union_set =
    absorb ~cardinal:Action.Set.cardinal ~fold:Action.Set.fold ~add:Action.Set.add
  in
  rebase
    {
      t1 with
      records = S.union t1.records t2.records;
      commits = union_ts t1.commits t2.commits;
      aborts = union_set t1.aborts t2.aborts;
      precommits = union_ts t1.precommits t2.precommits;
      preaborts = union_set t1.preaborts t2.preaborts;
    }

let equal t1 t2 = S.equal t1.records t2.records
let records t = S.elements t.records
let iter f t = S.iter f t.records

(* [Entry] ranks lowest in [Record_ord] and compares by [ets] first, so
   the entries are the set's prefix, already in timestamp order. *)
let entries t =
  let rec prefix seq =
    match seq () with
    | Seq.Cons (Entry e, rest) -> e :: prefix rest
    | Seq.Cons ((Commit_record _ | Abort_record _ | Precommit _ | Preabort _), _)
    | Seq.Nil ->
      []
  in
  prefix (S.to_seq t.records)

let commit_ts t action = Action.Map.find_opt action t.commits
let is_aborted t action = Action.Set.mem action t.aborts
let precommit_ts t action = Action.Map.find_opt action t.precommits
let has_preabort t action = Action.Set.mem action t.preaborts
let is_committed t action = Action.Map.mem action t.commits

let tentative t =
  List.filter (fun e -> not (is_committed t e.action || is_aborted t e.action)) (entries t)
let size t = S.cardinal t.records

(* [S.filter] returns its argument when it keeps every record, and so
   does this: the lineage goes on. *)
let filter_entries keep t =
  let records =
    S.filter
      (function
        | Entry e -> keep e.action
        | Commit_record _ | Abort_record _ | Precommit _ | Preabort _ -> true)
      t.records
  in
  if records == t.records then t else rebase { t with records }

let gc t = filter_entries (fun a -> not (is_aborted t a)) t

(* Termination votes (Precommit/Preabort) are part of the stable
   projection: the quorum-intersection counting argument behind
   cooperative termination requires that a repository never forgets a
   vote, even across a crash with amnesia. *)
let stable t = filter_entries (is_committed t) t

let pp ppf t =
  let pp_record ppf = function
    | Entry e ->
      Format.fprintf ppf "[%a %a %a #%d]" Lamport.Timestamp.pp e.ets Event.pp e.event
        Action.pp e.action e.seq
    | Commit_record (a, ts) ->
      Format.fprintf ppf "[commit %a@%a]" Action.pp a Lamport.Timestamp.pp ts
    | Abort_record a -> Format.fprintf ppf "[abort %a]" Action.pp a
    | Precommit (a, ts) ->
      Format.fprintf ppf "[precommit %a@%a]" Action.pp a Lamport.Timestamp.pp ts
    | Preabort a -> Format.fprintf ppf "[preabort %a]" Action.pp a
  in
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp_record ppf (records t)
