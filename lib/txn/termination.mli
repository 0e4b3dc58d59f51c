(** Crash-safe transaction termination: the coordinator's durable
    decision log.

    A coordinator that crashes between deciding a transaction's fate and
    broadcasting the decision would otherwise forget the transaction,
    stranding tentative entries at the repositories. This module gives
    every site a durable decision log (a {!Atomrep_store.Wal}): the
    coordinator WAL-logs a commit {!decision} [Intent] — flushed — before
    any commit record leaves the site, and an [Outcome] once the decision
    has been driven to the repositories. Recovery replays the log;
    intents without outcomes are the in-doubt set the recovered
    coordinator must re-drive. *)

open Atomrep_history
open Atomrep_clock

type mode =
  | Disabled  (** legacy best-effort termination: the historical give-up *)
  | Presumed_abort_only
      (** durable commit point + recovery redrive + presumed abort for
          stranded transactions that never logged an intent; blocked
          participants still wait for the coordinator *)
  | Cooperative
      (** [Presumed_abort_only] plus participant-driven cooperative
          termination (quorum vote rounds when the coordinator is
          unreachable) and the orphan reaper *)
  | Takeover
      (** [Cooperative] whose terminators first win an epoch-fenced
          takeover lease over the blocked object's repositories, stamp
          their votes with the lease term so stale drivers fence, and
          force-write adopted decisions to their own durable decision log
          before driving them *)

val mode_name : mode -> string

val enabled : mode -> bool
(** Any crash-safe termination at all — [mode <> Disabled]. The liveness
    monitors ({!Atomrep_chaos.Monitors}) only hold in-doubt transactions
    to an eventually-resolved obligation when some termination protocol
    exists to resolve them. *)

val cooperative : mode -> bool
(** Participant-driven termination is on ([Cooperative] or [Takeover]) —
    the only modes under which the stranded-entry gauge is required to
    drain to zero. *)

type decision =
  | Intent of {
      action : Action.t;
      touched : string list;
      cts : Lamport.Timestamp.t;
    }
      (** logged (and flushed) after prepare succeeds, before any commit
          record is sent; [cts] is the commit timestamp the decision is
          bound to *)
  | Outcome of { action : Action.t; committed : bool }
      (** logged once the decision reached the repositories; closes the
          in-doubt window *)

type t

val create : n_sites:int -> unit -> t
(** One decision log per site. *)

val log_intent :
  t ->
  site:int ->
  action:Action.t ->
  touched:string list ->
  cts:Lamport.Timestamp.t ->
  bool
(** Append + flush a commit intent. Returns [false] if the flush failed
    (disk full): the intent is NOT durable and the caller must abort the
    transaction rather than proceed to commit. *)

val log_outcome : t -> site:int -> action:Action.t -> committed:bool -> unit
(** Append + flush the outcome, closing the intent. A failed flush leaves
    the intent in doubt — redrive after a crash is idempotent. *)

val in_doubt :
  t -> site:int -> (Action.t * string list * Lamport.Timestamp.t) list
(** Durable intents with no durable outcome, in action order. *)

val crash : t -> site:int -> unit
(** The site crashed: drop the (always-empty, since every append is
    flushed) volatile buffer. *)

val recover :
  t -> site:int -> (Action.t * string list * Lamport.Timestamp.t) list
(** Replay the durable log, rebuild the in-doubt set from scratch, and
    return it — the transactions the recovered coordinator re-drives. *)

val writes : t -> int
(** Successful decision-log flushes (metrics). *)
