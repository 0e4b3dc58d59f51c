open Atomrep_history
open Atomrep_clock
module Wal = Atomrep_store.Wal

type mode = Disabled | Presumed_abort_only | Cooperative | Takeover

let mode_name = function
  | Disabled -> "none"
  | Presumed_abort_only -> "presumed-abort-only"
  | Cooperative -> "cooperative"
  | Takeover -> "takeover"

let enabled = function
  | Disabled -> false
  | Presumed_abort_only | Cooperative | Takeover -> true

let cooperative = function
  | Cooperative | Takeover -> true
  | Disabled | Presumed_abort_only -> false

type decision =
  | Intent of { action : Action.t; touched : string list; cts : Lamport.Timestamp.t }
  | Outcome of { action : Action.t; committed : bool }

type intent = { i_touched : string list; i_cts : Lamport.Timestamp.t }

type site_log = {
  wal : decision Wal.t;
  (* Durable intents that have no durable outcome yet — the in-doubt set.
     Mirrors stable storage exactly: indexed only after a successful
     flush, so a crash can never expose an intent the disk never saw. *)
  intents : (Action.t, intent) Hashtbl.t;
}

type t = { sites : site_log array; mutable writes : int }

let create ~n_sites () =
  {
    sites =
      Array.init n_sites (fun _ ->
          { wal = Wal.create (); intents = Hashtbl.create 8 });
    writes = 0;
  }

let writes t = t.writes

let flushed t d =
  let s = t.sites.(d) in
  match
    Atomrep_obs.Profile.record ~subsystem:"wal" "decision_flush" (fun () ->
        Wal.flush s.wal)
  with
  | Ok _ ->
    t.writes <- t.writes + 1;
    true
  | Error `Disk_full -> false

let log_intent t ~site ~action ~touched ~cts =
  let s = t.sites.(site) in
  Wal.append s.wal (Intent { action; touched; cts });
  if flushed t site then begin
    Hashtbl.replace s.intents action { i_touched = touched; i_cts = cts };
    true
  end
  else false

let log_outcome t ~site ~action ~committed =
  let s = t.sites.(site) in
  Wal.append s.wal (Outcome { action; committed });
  (* A failed outcome flush leaves the intent in doubt — redrive is
     idempotent, so resolving it again after recovery is harmless. *)
  if flushed t site then Hashtbl.remove s.intents action

let in_doubt t ~site =
  Hashtbl.fold
    (fun action i acc -> (action, i.i_touched, i.i_cts) :: acc)
    t.sites.(site).intents []
  |> List.sort (fun (a, _, _) (b, _, _) -> Action.compare a b)

let crash t ~site = Wal.crash t.sites.(site).wal

let recover t ~site =
  let s = t.sites.(site) in
  let r = Wal.recover s.wal in
  Hashtbl.reset s.intents;
  List.iter
    (function
      | Intent { action; touched; cts } ->
        Hashtbl.replace s.intents action { i_touched = touched; i_cts = cts }
      | Outcome { action; _ } -> Hashtbl.remove s.intents action)
    (r.Wal.snapshot @ r.Wal.tail);
  in_doubt t ~site
