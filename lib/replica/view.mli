(** Views: merged initial-quorum logs classified for scheme decisions
    (paper, §3.2: "The front-end merges the logs from an initial quorum for
    the invocation to construct a view"). *)

open Atomrep_history
open Atomrep_clock

type t = {
  committed : (Lamport.Timestamp.t * Log.entry) list;
      (** entries of committed actions with their commit timestamps, sorted
          by (commit timestamp, entry timestamp) — hybrid serialization
          order *)
  tentative : Log.entry list;
      (** entries of actions with no commit or abort record in the view,
          sorted by entry timestamp *)
}

val classify : Log.t -> t

val committed_events : t -> Event.t list
(** Committed events in commit-timestamp order. *)

val filter : t -> (Log.entry -> bool) -> t
(** The entries the predicate keeps, each list in its original order. *)

val static_timeline : t -> include_tentative:bool -> Event.t list
(** Events ordered by (action Begin timestamp, per-action sequence) — the
    static serialization order; entries with equal keys keep their view
    order, committed before tentative. [include_tentative] controls whether
    uncommitted actions' entries participate (they do for validation, not
    for response computation). *)
