(** Quorum-consensus replicated typed objects (paper, §3.2).

    A client executes an operation by sending the invocation to a
    front-end. The front-end merges the logs from an initial quorum for the
    invocation to construct a view; if the view shows no synchronization
    conflict, it chooses a response legal for the view, appends a
    timestamped entry, and sends the update to a final quorum of
    repositories.

    The synchronization-conflict rule is the concurrency-control scheme:

    - [Hybrid]: committed entries are serialized by commit timestamp;
      tentative entries of other actions whose operations are related to
      the invocation under the object's dependency relation block it.
    - [Locking]: the same structure with non-commutativity conflicts
      (type-specific two-phase locking; strong dynamic atomicity).
    - [Static]: entries are serialized by Begin timestamp; responses are
      computed at the invoking action's position and rejected if, for
      some commit/abort outcome of the other active actions, the
      insertion leaves the timeline illegal (multiversion timestamp
      ordering; on-line static atomicity).

    Front-ends are co-located with client sites (the paper places one at
    each client's site: object availability is dominated by repository
    availability). Each executed operation writes its tentative entry to a
    final quorum before responding, which is what makes conflicts visible
    to later initial quorums. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock
open Atomrep_quorum
open Atomrep_sim
open Atomrep_txn

type scheme = Hybrid | Static | Locking

val scheme_name : scheme -> string

val scheme_of_name : string -> (scheme, string) result
(** Inverse of {!scheme_name}; [Error] names the unknown scheme and lists
    the valid ones. *)

val property_of_scheme : scheme -> Atomrep_atomicity.Atomicity.property
(** The local atomicity property each scheme guarantees. *)

type op_result =
  | Done of Event.Response.t
  | Blocked_on of Action.t (** conflicting uncommitted action *)
  | Unavailable of string (** no initial or final quorum reachable *)
  | Rejected of string (** scheme validation failed: abort the action *)

val scheme_relation : scheme -> Serial_spec.t -> Atomrep_core.Relation.t
(** The dependency relation a scheme's object is configured with: the
    minimal dynamic relation for [Locking] (Theorem 10), the minimal static
    one for [Hybrid] and [Static] (Theorem 6), both at [max_len:4]. *)

val conflict_table :
  Serial_spec.t -> scheme -> Relation.t Lazy.t -> Atomrep_cc.Conflict_table.t
(** The scheme's lock conflicts: [Hybrid] and [Static] project the given
    dependency relation, [Locking] the minimal dynamic relation of the
    specification (every non-commuting pair, Theorem 10) without forcing
    the given one. *)

val decide :
  spec:Serial_spec.t ->
  scheme:scheme ->
  table:Atomrep_cc.Conflict_table.t ->
  action:Action.t ->
  begin_ts:Lamport.Timestamp.t ->
  own:Log.entry list ->
  View.t ->
  Event.Invocation.t ->
  (Event.Response.t, op_result) result
(** The scheme rule: given a view and the invoking action's own entries
    ([own] is authoritative; the view's copies of them are ignored),
    either a response legal for the view ([Ok]) or why the operation
    cannot run now: [Blocked_on] a related tentative entry (the first in
    entry-timestamp order; under [Static] only earlier-Begin actions
    block), or [Rejected] when no legal response exists or, under
    [Static], none keeps the Begin-timestamp timeline legal for every
    subset of the view's other tentative actions committing (the rest
    aborting): 2{^k} timelines for [k] such actions, each replayed from
    the memoized committed prefix, the one where all commit first. Never returns
    [Done] or [Unavailable]; its only effect is on the view's replay memo.
    {!execute} applies it to the view of an initial quorum, {!Scheduler}
    to one repository's log. *)

type t

val create :
  name:string ->
  spec:Serial_spec.t ->
  scheme:scheme ->
  relation:Relation.t ->
  assignment:Assignment.t ->
  net:Network.t ->
  ?members:int list ->
  ?durability:Repository.durability ->
  unit ->
  t
(** {!rpc_timeout} bounds every quorum RPC issued on the object's behalf.
    [members] (default: all sites) are epoch 0's repository
    sites; [assignment] must be sized for exactly that member count.
    [durability] (default [Volatile]) selects the repositories' stable
    storage model — see {!Repository.durability}. Creation also registers
    the object's repositories with the network's crash-with-amnesia,
    rejoin-resync, and storage-fault hooks; durable repositories replay
    their WAL ({!Repository.recover}) before the peer resync runs. *)

val name : t -> string

val current_epoch : t -> Epoch.t
(** The configuration new operations target. Operations pin the epoch at
    their start; a reconfiguration landing mid-operation makes the pinned
    epoch stale, the repositories refuse its traffic, and the operation
    fails over to a retry under the new epoch. *)

val constraints : t -> Op_constraint.t list
(** The intersection constraints projected from the object's dependency
    relation — what any epoch's assignment must satisfy. *)

val ops : t -> string list
(** Operation names of the object's type (from the current assignment). *)

val assignment : t -> Assignment.t
(** The current epoch's assignment. *)

val rpc_timeout : float
(** The per-RPC timeout in ms (50), shared by reads, writes, and the commit
    protocol's prepare probes. *)

val execute :
  t ->
  txn:Txn.t ->
  clock:Lamport.t ->
  ?span:int ->
  Event.Invocation.t ->
  k:(op_result -> unit) ->
  unit
(** Run the §3.2 front-end protocol from the transaction's home site:
    gather an initial quorum (with RPC timeouts), read its view through
    the object's view cache ({!View.gather}), apply
    the scheme rule, and on success write the entry to a final quorum.
    [k] receives the outcome; [Done] responses have already reached their
    final quorum. [span] (a trace span id from the network's attached bus,
    negative = none) becomes the parent of the per-operation span. *)

val broadcast_status : t -> Log.record -> reachable_from:int -> unit
(** Push a commit/abort record to every repository reachable from the given
    site — commit-protocol phase 2 and abort/status propagation. Commit
    records carry the action's own entries with them (idempotent re-push
    that repairs repositories whose tentative copies were lost to
    crash-with-amnesia) unless {!set_commit_piggyback} turned that off. *)

val set_commit_piggyback : t -> bool -> unit
(** Negative testing only: [false] stops commit records from re-pushing
    their action's entries — half of the pre-fix amnesia behavior the
    postmortem tests replay (the other half is ungated rejoin). Default
    [true]. *)

type gray = {
  g_route : op:string -> floor:int -> members:int list -> int list * Rpc.hedge option;
      (** pick a quorum round's primary destinations from [members] — the
          returned list must keep at least [floor] sites (the round's
          max(initial, final)) or routing falls back to the full
          membership — plus the hedging policy whose spares are the
          members routed out *)
  g_early : bool;  (** fire gathers on a satisfying early vote set *)
  g_on_late : (dst:int -> ok:bool -> unit) option;
      (** observe straggler replies arriving after their gather fired *)
}
(** Gray-failure mitigation hooks (see {!set_gray}). *)

val set_gray : t -> gray option -> unit
(** Install (or clear) the gray-failure mitigation hooks. With [None] (the
    default) every quorum round targets all epoch members and gathers
    all-or-timeout, bit-identical to the historical runtime. Safety under
    the hooks is quorum-choice freedom, not protocol change: primaries
    always number at least the round's quorum floor, intentions planted at
    hedged spares are withdrawn by the release path (which always targets
    the full membership) or resolved by terminal records, and repository
    handlers are idempotent under first-reply-wins hedging. *)

val prepared_sites : t -> from:int -> timeout:float -> k:(int list -> unit) -> unit
(** Which repository sites answer a prepare probe from [from] —
    commit-protocol phase 1 uses this to check final-quorum reachability. *)

val history : t -> Behavioral.t
(** The object's global behavioral history as recorded by an omniscient
    observer (operation executions in response order, plus Begin / Commit /
    Abort entries supplied by the runtime). *)

val observe : t -> Behavioral.entry -> unit
(** Used by the runtime to record Begin/Commit/Abort entries. *)

val max_final : t -> int
(** Largest final-quorum size over the object's operations — the number of
    acknowledgements the commit protocol requires. *)

val quorum_n : t -> int
(** Member count of the current epoch. *)

val vote_need : t -> int
(** Precommit votes required to certify a commit decision for this object:
    a final quorum's worth ([max 1 (max_final t)]). *)

val veto_need : t -> int
(** Preabort votes required to certify an abort decision:
    [quorum_n - vote_need + 1]. Any commit vote set and any abort vote set
    then intersect at some repository, whose sticky first vote makes at
    most one side able to reach its threshold — the quorum-intersection
    argument of Theorems 4/10 applied to termination. *)

val place_vote :
  ?term:int ->
  t ->
  Log.record ->
  from:int ->
  k:(Repository.status_evidence list -> unit) ->
  unit
(** Offer a record (normally a termination vote) to every current member
    and gather each reachable repository's resulting evidence for the
    record's action ({!Repository.offer}). Votes bypass the epoch fence,
    like {!broadcast_status}: they resolve stuck state, and safety rests
    on vote stickiness plus threshold intersection, not epoch pinning.
    [term], when given, stamps the votes with the driver's takeover term:
    repositories holding a newer lease grant answer [E_fenced] instead of
    recording the vote, halting a stale driver (a returning original
    coordinator drives at the implicit term [0]). *)

val lease_need : t -> int
(** Takeover lease grants required before adopting this object's in-doubt
    transactions: [max vote_need veto_need], so the lease set intersects
    every possible commit vote set AND every abort vote set — a fenced
    driver can assemble neither threshold past the fence. *)

val takeover_acquire :
  t ->
  Atomrep_history.Action.t ->
  term:int ->
  holder:int ->
  from:int ->
  k:(granted:int -> highest:int -> unit) ->
  unit
(** One takeover lease round: propose [term] for [holder] at every current
    member ({!Repository.grant_takeover}) and gather [granted] (how many
    repositories granted it) and [highest] (the highest term any reachable
    repository has granted — what an out-bid contender must exceed on its
    next attempt). The lease is held iff [granted >= lease_need]. *)

val poll_status :
  t ->
  Atomrep_history.Action.t ->
  from:int ->
  k:(Repository.status_evidence list -> unit) ->
  unit
(** Read-only status poll: each reachable repository's strongest evidence
    about the action ({!Repository.status_of}). *)

val start_anti_entropy : t -> rng:Atomrep_stats.Rng.t -> every:float -> unit
(** Start a background gossip process: at the given period, a random pair
    of mutually reachable repositories exchanges logs (both directions)
    and garbage-collects aborted entries. Quorum intersection makes this
    unnecessary for safety; it shortens the window in which commit/abort
    records are missing at some sites (e.g. after recovery or lost
    broadcasts), reducing conflict blocking. *)

val repository_log : t -> site:int -> Log.t
(** Direct access to one repository's log (the orphan reaper's and the
    stranded count's tentative scan, and tests). *)

val repository : t -> site:int -> Repository.t
(** Direct (test-only) access to one repository — checkpoint forcing and
    WAL fault injection in the storage tests. *)

val recoveries : t -> Repository.recovery list
(** Every WAL recovery the object's repositories performed (rejoin order).
    Empty when running volatile. *)

val wal_totals : t -> Atomrep_store.Wal.stats option
(** WAL counters summed over the object's repositories; [None] when the
    object runs volatile. *)

type reconfig_result =
  | Reconfigured of int (** new epoch number now in force *)
  | Refused of string
      (** never permitted: static scheme, or an invalid/unsatisfying plan *)
  | Failed of string
      (** this attempt could not complete (quorum unreachable); the old
          epoch stays in force and the coordinator may retry *)

val reconfigure :
  t ->
  members:int list ->
  assignment:Assignment.t ->
  ?allow_barrier:bool ->
  ?unsafe_no_barrier:bool ->
  from:int ->
  (reconfig_result -> unit) ->
  unit
(** [reconfigure t ~members ~assignment ~from k] hands the object off to a
    new epoch with the given member set and
    assignment, coordinated from site [from].

    Refused outright under [Static] — the paper's restriction that static
    atomicity fixes quorums when the type is defined, while hybrid and
    dynamic atomicity may reassign them as timestamps advance (§4–5,
    Theorems 10–12). Under [Hybrid]/[Locking], the plan is validated
    ([assignment] sized for [members] and satisfying the type's
    constraints), then one of two safe handoffs runs:

    - if {!Epoch.intersects} holds, the switch is immediate — new initial
      quorums already meet old final quorums;
    - otherwise (requires [allow_barrier], default true) a state-transfer
      barrier drains the old epoch: every old member that acks the seal
      atomically joins the new epoch (fencing its future old-epoch
      appends) and returns its log; [n_old - f + 1] acks guarantee the
      merged log holds every entry any old final quorum accepted; the
      merge is installed at [n_new - i + 1] new members so every future
      initial quorum meets it.

    [unsafe_no_barrier] skips both the invariant and the barrier — a
    deliberately broken handoff kept for negative testing, so chaos
    campaigns can demonstrate the oracles catching the resulting
    atomicity violations. *)
