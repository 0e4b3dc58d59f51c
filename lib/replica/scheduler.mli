(** One-repository concurrency control: the paper's three local atomicity
    mechanisms at a single site.

    A single repository's log is the one-site view (paper, §3.2), so each
    operation reads the log's view ({!View.gather}, folding in the records
    logged since the previous operation) and applies
    {!Replicated.decide}, the same rule every replicated front-end applies
    to its merged initial-quorum view:

    - [Locking] — generalized type-specific two-phase locking
      (Schwarz–Spector [26]; Argus, TABS): conflicts are non-commuting
      operation pairs; guarantees {e strong dynamic} atomicity.
    - [Static] — multiversion timestamp ordering on Begin timestamps
      (Reed [25]; Swallow): guarantees {e static} atomicity.
    - [Hybrid] — locking while active plus commit-time timestamps (Weihl
      [28], Avalon-style): guarantees {e hybrid} atomicity.

    The test suite checks every history it generates with
    {!Atomrep_atomicity.Atomicity.check}. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_clock

type t

val create : Replicated.scheme -> Serial_spec.t -> t
(** A fresh object. Its conflict table projects
    {!Replicated.scheme_relation} at the type's default relations, so
    [Locking] never computes the static one. *)

val begin_action : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
(** Register an action; [ts] is its Begin timestamp, unique per action.
    Raises [Invalid_argument] on a second Begin for the same action. *)

val try_operation : t -> Action.t -> Event.Invocation.t -> Replicated.op_result
(** Attempt one operation: [Done res] logs the event; [Blocked_on] (wait
    for the named action to finish) and [Rejected] (the action must abort)
    log nothing. Never [Unavailable]. Like {!commit} and {!abort}, raises
    [Invalid_argument] on an unknown action or one no longer active. *)

val commit : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
(** Commit with the given commit timestamp (issued in increasing order
    across the object's actions). *)

val abort : t -> Action.t -> unit

val history : t -> Behavioral.t
(** The behavioral history generated so far, for atomicity checking. *)
