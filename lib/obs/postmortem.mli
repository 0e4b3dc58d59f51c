(** Causal postmortems: slice a trace to the Lamport-order past cone of the
    violating operations.

    The happens-before relation is the transitive closure of the two edge
    families the trace records — per-site program order ([prev]) and
    cross-site causation ([cause], message send → delivery). The past cone
    of a set of target events is everything that happens-before any of
    them, computed by a reverse reachability walk; since a quorum access
    delivers at every repository it touches, the cone of a violating
    operation automatically pulls in the repository-side history it read —
    crashes, rejoins, and the appends whose loss produced the violation. *)

val causal_cone : Trace.t -> targets:int list -> Trace.event list
(** The past cone of the target ids (targets included), in emission order.
    Negative / out-of-range ids are ignored. *)

val events_of_actions : Trace.t -> actions:string list -> int list
(** Ids of the events naming any of the given transactions: those with a
    {!Trace.fields} entry [txn], [blocker] or [victim] equal to one, or a
    [cycle] holding one. These are a slice's targets: every kind that
    names a transaction ([txn_*], [lock_*], [quorum_*], [repo_*],
    [commit_point], [coop_term], [takeover_*], [shed], [session_commit],
    [deadlock], ...) counts, and a kind added later counts as soon as its
    fields name one. *)

val actions_of_failure : string -> string list
(** Transaction names ([T<digits>] tokens) mentioned by an atomicity-oracle
    failure description, deduplicated, in order of first mention. *)

type t = {
  header : (string * string) list; (** key/value context lines *)
  targets : int list;
  slice : Trace.event list;
  trace_length : int;
}

val build : Trace.t -> header:(string * string) list -> failures:(string * string) list -> t
(** Slice the trace to the causal cone of every action mentioned in the
    (object, failure) pairs. If no action can be extracted, the slice
    falls back to the whole trace (better a fat postmortem than none). *)

val render : t -> string
(** Human-readable postmortem: header, cone statistics, then the slice one
    event per line. *)

val contains : t -> (Trace.kind -> bool) -> bool
(** Does any event in the slice satisfy the predicate? *)
