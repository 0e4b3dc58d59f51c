(** Replicated object logs (paper, §3.2, Figure 3-1).

    A replicated object's state is represented as a log: a sequence of
    entries, each consisting of a timestamp, an event, and an action
    identifier. Log entries are partially replicated among repositories;
    front-ends reconstruct views by merging the logs of an initial quorum.

    Besides operation entries, logs carry status records (commit with its
    commit timestamp, abort) so that a view can classify entries. Merging
    is a set union keyed on identity; it is commutative, associative and
    idempotent, which the property tests check.

    A log indexes its status records by action, so every status query is
    a lookup rather than a scan of the log. A log also keeps a journal of
    the records {!add} gave it since its lineage began, so a reader that
    saw an earlier version can fetch just the records added since
    ({!since}), and {!View} folds those into a cached view, so reading a view
    again costs the new records, not the log's length. In the costs below,
    [n] is the number of records in the log.

    When a log holds two [Commit_record]s (or two [Precommit]s) for one
    action with different timestamps, the later timestamp is the one
    {!commit_ts} (or {!precommit_ts}) reports. *)

open Atomrep_history
open Atomrep_clock

type entry = {
  ets : Lamport.Timestamp.t; (** unique entry timestamp *)
  action : Action.t;
  begin_ts : Lamport.Timestamp.t; (** Begin timestamp of the action *)
  seq : int; (** operation index within the action *)
  event : Event.t;
}

type record =
  | Entry of entry
  | Commit_record of Action.t * Lamport.Timestamp.t
  | Abort_record of Action.t
  | Precommit of Action.t * Lamport.Timestamp.t
      (** Uncertified, sticky termination vote for commit at the given
          commit timestamp. Invisible to views (entries stay tentative);
          a repository holding one refuses to accept a [Preabort] for
          the same action. *)
  | Preabort of Action.t
      (** Uncertified, sticky termination vote for abort; a repository
          holding one refuses a [Precommit] for the same action. *)

type t

val empty : t

val add : t -> record -> t
(** O(log n). Extends the log's lineage by one journal record; a record
    the log already holds returns the log physically unchanged. *)

type mark
(** A version of a log, as far as {!since} needs it: the log's lineage
    and journal, not its record set, so holding a mark keeps nothing
    alive that the log's later versions do not. *)

val mark : t -> mark

val since : mark -> mark -> record list option
(** [since old m] is [Some rs] when [m]'s log is [old]'s extended by
    {!add} alone, [rs] being the records added, oldest first; [None]
    otherwise (another lineage, an older version than [old], or a version
    that branched off an ancestor of [old]). O(|rs|). *)

val merge : t -> t -> t
(** Union of two logs. O(n log n); when both logs hold the same status
    records, only the record set is rebuilt. The result starts a new
    lineage. *)

val equal : t -> t -> bool
(** Same records. O(n). *)

val records : t -> record list
(** Every record, entries first. O(n). *)

val iter : (record -> unit) -> t -> unit
(** Every record, in {!records}' order. O(n). *)

val entries : t -> entry list
(** Operation entries sorted by entry timestamp. O(n); no sort. *)

val commit_ts : t -> Action.t -> Lamport.Timestamp.t option
(** The action's commit timestamp, the later one if the log holds two.
    O(log n). *)

val is_aborted : t -> Action.t -> bool
(** O(log n). *)

val is_committed : t -> Action.t -> bool
(** O(log n). *)

val tentative : t -> entry list
(** The entries of actions with neither a commit nor an abort record (a
    [Precommit] or [Preabort] vote leaves them tentative), by entry
    timestamp: the classification {!View.tentative} gives the log. O(n log
    n). *)

val precommit_ts : t -> Action.t -> Lamport.Timestamp.t option
(** The commit timestamp carried by a [Precommit] vote for the action,
    if this log holds one; the later one if it holds two. O(log n). *)

val has_preabort : t -> Action.t -> bool
(** O(log n). *)

val size : t -> int
(** Number of records. O(n). *)

val pp : Format.formatter -> t -> unit

val gc : t -> t
(** Garbage-collect aborted actions: drop their operation entries while
    keeping the abort records as tombstones — merging with a stale replica
    that still holds such an entry must not resurrect it as tentative.
    O(n log n). A log with nothing to drop comes back physically
    unchanged; otherwise the result starts a new lineage. *)

val stable : t -> t
(** The stable-storage projection: entries of committed actions plus all
    commit and abort records and all termination votes (votes must
    survive crashes or the quorum-counting argument for cooperative
    termination breaks). Tentative (undecided) entries are the volatile
    part a crash-with-amnesia loses. O(n log n). Starts a new lineage
    exactly as {!gc} does. *)
