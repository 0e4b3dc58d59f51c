open Atomrep_history
open Atomrep_clock
module Wal = Atomrep_store.Wal
module Takeover = Atomrep_txn.Takeover

type intention = {
  i_action : Action.t;
  i_op : string;
  i_bts : Lamport.Timestamp.t;
  i_seq : int;
}

type payload =
  | P_record of Log.record
  | P_epoch of int
  | P_high of Lamport.Timestamp.t

type durability =
  | Volatile
  | Durable of { group_commit : bool; segment_records : int; checkpoint_every : int }

let durable ?(group_commit = false) ?(segment_records = 32) ?(checkpoint_every = 64)
    () =
  Durable { group_commit; segment_records; checkpoint_every }

type storage_note =
  | Flushed of int
  | Flush_rejected
  | Checkpointed of { kept : int; dropped_segments : int }

type t = {
  site : int;
  mutable log : Log.t;
  mutable high : Lamport.Timestamp.t;
  mutable locks : intention list;
  mutable epoch : int;
  store : payload Wal.t option;
  group_commit : bool;
  checkpoint_every : int;
  mutable on_storage : storage_note -> unit;
  mutable on_resolve : Action.t -> committed:bool -> unit;
  takeover : Takeover.t;
}

type recovery = {
  r_site : int;
  r_replayed : int;
  r_truncated : int;
  r_corrupt : bool;
  r_segments : int;
  r_cost_ms : float;
}

let create ?(durability = Volatile) ~site () =
  let store, group_commit, checkpoint_every =
    match durability with
    | Volatile -> (None, false, max_int)
    | Durable { group_commit; segment_records; checkpoint_every } ->
      (Some (Wal.create ~segment_records ()), group_commit, checkpoint_every)
  in
  {
    site;
    log = Log.empty;
    high = Lamport.Timestamp.zero;
    locks = [];
    epoch = 0;
    store;
    group_commit;
    checkpoint_every;
    on_storage = (fun _ -> ());
    on_resolve = (fun _ ~committed:_ -> ());
    takeover = Takeover.create ();
  }

let site t = t.site
let read t = t.log
let store t = t.store
let set_storage_hook t f = t.on_storage <- f
let set_resolve_hook t f = t.on_resolve <- f

let ts_max a b = if Lamport.Timestamp.compare a b >= 0 then a else b

(* The largest timestamp the log itself witnesses — what a recovering site
   can honestly claim to have seen. *)
let high_of_log log =
  List.fold_left
    (fun acc r ->
      match r with
      | Log.Entry e -> ts_max acc e.Log.ets
      | Log.Commit_record (_, ts) | Log.Precommit (_, ts) -> ts_max acc ts
      | Log.Abort_record _ | Log.Preabort _ -> acc)
    Lamport.Timestamp.zero (Log.records log)

let witness t ts = if Lamport.Timestamp.compare ts t.high > 0 then t.high <- ts

let drop_intention t action seq =
  t.locks <-
    List.filter
      (fun i -> not (Action.equal i.i_action action && i.i_seq = seq))
      t.locks

let drop_action t action =
  t.locks <- List.filter (fun i -> not (Action.equal i.i_action action)) t.locks

(* The checkpoint snapshot is the gc'd log — aborted entries dropped but
   their abort tombstones kept, so compaction can never resurrect a dead
   entry at a stale peer — plus the epoch register and the high watermark
   (gc may drop the entry that carried the maximum timestamp, and a
   compacted recovery must witness no less than an uncompacted one). *)
let snapshot_payloads t =
  List.map (fun r -> P_record r) (Log.records (Log.gc t.log))
  @ [ P_epoch t.epoch; P_high t.high ]

let checkpoint t =
  match t.store with
  | None -> ()
  | Some wal ->
    let snapshot = snapshot_payloads t in
    (match Wal.checkpoint wal snapshot with
     | Ok dropped ->
       t.on_storage
         (Checkpointed { kept = List.length snapshot; dropped_segments = dropped })
     | Error `Disk_full -> t.on_storage Flush_rejected)

let flush_key = Atomrep_obs.Profile.key ~subsystem:"wal" "flush"

(* A full disk does not stop the repository: it keeps serving from memory
   with durable state lagging — anything a later crash loses is restored by
   the quorum-gated resync, exactly like amnesia. *)
let flush_now t wal =
  match Atomrep_obs.Profile.record flush_key (fun () -> Wal.flush wal) with
  | Ok 0 -> ()
  | Ok n ->
    t.on_storage (Flushed n);
    if Wal.records_since_checkpoint wal >= t.checkpoint_every then checkpoint t
  | Error `Disk_full -> t.on_storage Flush_rejected

(* First decision wins: a repository's termination vote is sticky. Once it
   holds a Preabort (or a certified abort) for an action it refuses the
   Precommit, and vice versa — this per-site mutual exclusion is what makes
   the vote-quorum counting argument sound. Certified records are always
   accepted. Duplicate Precommits must agree on the commit timestamp. *)
let accepts t r =
  match r with
  | Log.Precommit (a, ts) -> (
    match Log.precommit_ts t.log a with
    | Some ts' -> Lamport.Timestamp.compare ts ts' = 0
    | None -> not (Log.has_preabort t.log a || Log.is_aborted t.log a))
  | Log.Preabort a ->
    not (Option.is_some (Log.precommit_ts t.log a) || Log.is_committed t.log a)
  | Log.Entry _ | Log.Commit_record _ | Log.Abort_record _ -> true

let append t records =
  (* Resolutions newly installed by this append, fired after the whole
     batch lands so the hook observes the post-append log. Every delivery
     path funnels through here — status broadcasts, anti-entropy gossip
     ({!ingest}), and termination vote offers — so one hook suffices to
     witness "this repository resolved that transaction". *)
  let resolved = ref [] in
  let accepted =
    List.filter
      (fun r ->
        let ok = accepts t r in
        if ok then begin
          (match r with
           | Log.Entry e ->
             witness t e.Log.ets;
             drop_intention t e.Log.action e.Log.seq
           | Log.Commit_record (a, ts) ->
             witness t ts;
             if not (Log.is_committed t.log a) then
               resolved := (a, true) :: !resolved;
             drop_action t a
           | Log.Abort_record a ->
             if not (Log.is_aborted t.log a) then
               resolved := (a, false) :: !resolved;
             drop_action t a
           | Log.Precommit (_, ts) -> witness t ts
           | Log.Preabort _ -> ());
          t.log <- Log.add t.log r
        end;
        ok)
      records
  in
  List.iter (fun (a, committed) -> t.on_resolve a ~committed) (List.rev !resolved);
  match t.store with
  | None -> ()
  | Some wal ->
    List.iter (fun r -> Wal.append wal (P_record r)) accepted;
    (* Group commit defers the barrier until a batch carries a decision:
       tentative entries ride in the buffer and are fsynced together with
       the commit/abort that resolves them. Termination votes count as
       decisions — a vote that is not durable could be forgotten and
       re-cast the other way, breaking the sticky-vote invariant. *)
    let has_status =
      List.exists
        (function
          | Log.Commit_record _ | Log.Abort_record _ | Log.Precommit _
          | Log.Preabort _ ->
            true
          | Log.Entry _ -> false)
        accepted
    in
    if (not t.group_commit) || has_status then flush_now t wal

let high_ts t = t.high

let gc t = t.log <- Log.gc t.log

let ingest t peer_log =
  append t (Log.records peer_log);
  gc t

let amnesia t =
  (* Epoch membership is stable state: forgetting it would let a recovered
     site accept quorum traffic from a configuration it already left.
     Takeover grants by contrast are deliberately volatile: forgetting a
     lease only widens who may drive — never what can be decided, which
     rests on the sticky votes below. *)
  t.locks <- [];
  Takeover.forget t.takeover;
  match t.store with
  | None ->
    t.log <- Log.stable t.log;
    (* The high watermark is volatile — it dies with the crash. Recompute
       it from what stable storage holds: keeping the in-memory value
       would over-witness timestamps the site never durably saw. *)
    t.high <- high_of_log t.log
  | Some wal ->
    (* With a WAL, *everything* in memory is volatile; the durable prefix
       comes back via {!recover} at rejoin. *)
    Wal.crash wal;
    t.log <- Log.empty;
    t.high <- Lamport.Timestamp.zero

let recover t =
  match t.store with
  | None -> None
  | Some wal ->
    let r = Wal.recover wal in
    let log, high, epoch =
      List.fold_left
        (fun (log, high, epoch) p ->
          match p with
          | P_record rc -> (Log.add log rc, high, epoch)
          | P_epoch e -> (log, high, max epoch e)
          | P_high ts -> (log, ts_max high ts, epoch))
        (Log.empty, Lamport.Timestamp.zero, t.epoch)
        (r.Wal.snapshot @ r.Wal.tail)
    in
    t.log <- log;
    t.high <- ts_max high (high_of_log log);
    t.epoch <- epoch;
    t.locks <- [];
    Takeover.forget t.takeover;
    Some
      {
        r_site = t.site;
        r_replayed = r.Wal.replayed;
        r_truncated = r.Wal.truncated;
        r_corrupt = r.Wal.corrupt;
        r_segments = r.Wal.segments_scanned;
        r_cost_ms = Wal.recovery_cost_ms r;
      }

let epoch t = t.epoch

let advance_epoch t e =
  if e > t.epoch then begin
    t.epoch <- e;
    match t.store with
    | None -> ()
    | Some wal ->
      (* Epoch fencing must be durable regardless of group commit: a site
         that durably left an epoch may never un-leave it by crashing. *)
      Wal.append wal (P_epoch e);
      flush_now t wal
  end

let intentions t = t.locks

let intend t i =
  drop_intention t i.i_action i.i_seq;
  t.locks <- i :: t.locks

let release t action seq = drop_intention t action seq

type status_evidence =
  | E_committed of Lamport.Timestamp.t
  | E_aborted
  | E_precommit of Lamport.Timestamp.t
  | E_preabort
  | E_none
  | E_fenced of int

let status_of t action =
  match Log.commit_ts t.log action with
  | Some ts -> E_committed ts
  | None ->
    if Log.is_aborted t.log action then E_aborted
    else (
      match Log.precommit_ts t.log action with
      | Some ts -> E_precommit ts
      | None -> if Log.has_preabort t.log action then E_preabort else E_none)

let offer ?term t record =
  let action =
    match record with
    | Log.Entry e -> e.Log.action
    | Log.Commit_record (a, _)
    | Log.Abort_record a
    | Log.Precommit (a, _)
    | Log.Preabort a ->
      a
  in
  (* The takeover fence guards only the vote records, and only when the
     driver identifies itself with a term. Certified commit/abort records
     are ALWAYS accepted — refusing one could strand resolved state, and
     agreement never rested on the fence (it rests on vote stickiness):
     the fence exists so a stale driver halts instead of racing the
     current lease holder through a whole vote round. *)
  let fenced =
    match (record, term) with
    | (Log.Precommit _ | Log.Preabort _), Some tm ->
      Takeover.fences t.takeover action ~term:tm
    | _, _ -> None
  in
  match fenced with
  | Some granted -> E_fenced granted
  | None ->
    append t [ record ];
    status_of t action

let takeover_term t action = Takeover.term_of t.takeover action

let grant_takeover t action ~term ~holder =
  Takeover.grant t.takeover action ~term ~holder
