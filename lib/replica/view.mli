(** Views: merged initial-quorum logs classified for scheme decisions
    (paper, §3.2: "The front-end merges the logs from an initial quorum for
    the invocation to construct a view").

    A view is the union of some repositories' logs with each operation
    entry classified by its action's status records: dropped once the
    action is aborted, committed at its (later) commit timestamp, else
    tentative. Views are built incrementally. A {!cache} keeps, per set of
    reply sites, the view it built last and the logs it built it from;
    when every reply log extends the one it saw by {!Log.add} alone
    ({!Log.since}), the view folds in just the new records, reclassifies
    only the actions they touch, and keeps the replay memo of its
    committed prefix up to the first position that changed. Any other
    reply (another lineage, or an older log than the cache saw) rebuilds
    the view from empty by the same fold. Either way the view is the
    classification of the logs' union, record for record. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_clock

type t
(** A view. A cached view is updated in place by the next {!gather} on the
    same cache: read it before gathering again. *)

type cache
(** One object's views, keyed by the set of sites that replied. *)

val cache : Serial_spec.t -> cache
(** An empty cache for an object of the given type; its views replay
    committed entries through this specification. *)

val gather : cache -> (int * Log.t) list -> t
(** [gather c replies] is the view of the union of the reply logs, each
    paired with the site it came from (at most once per site). O(r log n)
    for [r] records new since the cached view of the same sites; a rebuild
    costs O(n log n). An older snapshot than the cached one (a gather
    overtaken by a later one) is rebuilt and does not evict the cached
    view. *)

val of_log : Serial_spec.t -> Log.t -> t
(** The view of one log, built from empty in a cache of its own. *)

val folded : cache -> int
(** Records folded into the cache's views so far, one per record per
    reply log read, rebuilds included. *)

val tentative : t -> Log.entry list
(** Entries of actions with no commit or abort record in the view, sorted
    by entry timestamp. O(n). *)

val committed : t -> (Lamport.Timestamp.t * Log.entry) list
(** Entries of committed actions with their commit timestamps, sorted by
    (commit timestamp, entry timestamp): the hybrid serialization order.
    O(n). *)

val committed_events : t -> Event.t list
(** Committed events in commit-timestamp order. O(n). *)

(** {2 Queries for the scheme rule}

    Each query leaves out the entries of the [exclude] action (the
    invoking action, whose own entries are authoritative). The static
    order is (action Begin timestamp, per-action sequence); on equal keys
    committed entries come first, in commit-timestamp order, then
    tentative entries in entry-timestamp order. *)

val find_tentative : t -> (Log.entry -> bool) -> Log.entry option
(** The first tentative entry, in entry-timestamp order, the predicate
    holds for. *)

val commit_state : t -> exclude:Action.t -> Value.t option
(** The state after every committed event in commit-timestamp order, from
    the initial state; [None] if some event is illegal. Memoized: it
    replays only the entries past the latest unchanged checkpoint. *)

val static_state :
  t ->
  exclude:Action.t ->
  before:Lamport.Timestamp.t ->
  tentative:(Action.t -> bool) ->
  Value.t option
(** The state after every event, in the static order, of the entries whose
    Begin timestamp is below [before]: the committed entries and the
    tentative entries of the actions [tentative] holds for (a timeline in
    which exactly those active actions commit). The committed prefix is
    memoized as in {!commit_state}. *)

val static_later :
  t ->
  exclude:Action.t ->
  from:Lamport.Timestamp.t ->
  tentative:(Action.t -> bool) ->
  Event.t list
(** The events of the entries whose Begin timestamp is at least [from], in
    the static order: the committed entries and the tentative entries of
    the actions [tentative] holds for. *)
