(** Causally-ordered trace of protocol events.

    The replication stack emits typed events into a bus; each event is
    stamped with simulated time, the emitting site, and a per-site Lamport
    counter. Two happens-before edges are recorded explicitly: per-site
    program order ([prev], the previous event emitted at the same site) and
    cross-site causation ([cause], supplied by the emitter — e.g. a message
    delivery names its send). Together they make the trace a Lamport-style
    event history over which {!Postmortem} computes causal cones.

    A disabled bus ({!null}, or [create ~enabled:false]) records nothing and
    draws nothing from any RNG, so instrumented code behaves identically —
    bit-for-bit — with tracing on or off; only the trace itself differs. *)

type kind =
  | Rpc_send of { src : int; dst : int }
  | Rpc_recv of { src : int; dst : int }
  | Rpc_drop of { src : int; dst : int; reason : string; elapsed : float }
      (** lost in flight ([link]), delivered to a down site ([dead_dest]),
          or refused by the circuit breaker ([breaker]); [elapsed] is the
          sim-time the message spent in flight before being dropped (0 for
          send-time refusals) *)
  | Rpc_timeout of { src : int; dst : int; timeout : float; elapsed : float }
      (** the caller gave up waiting: [timeout] is the configured budget,
          [elapsed] the sim-time actually waited — postmortems attribute
          tail latency to specific sites from these *)
  | Quorum_read of { txn : string; op : string; got : int; need : int }
      (** initial-quorum assembly outcome at the front-end *)
  | Quorum_append of { txn : string; op : string; got : int; need : int }
      (** final-quorum append outcome at the front-end *)
  | Repo_append of { txn : string; op : string; tentative : bool }
      (** one repository logged an entry (site = the repository) *)
  | Txn_begin of { txn : string }
  | Txn_commit of { txn : string }
  | Txn_abort of { txn : string; reason : string }
  | Lock_wait of { txn : string; blocker : string }
      (** blocked on a conflicting uncommitted action's tentative entry *)
  | Lock_grant of { txn : string; op : string }
      (** the scheme rule admitted the operation (no conflict in the view) *)
  | Epoch_seal of { epoch : int }
  | Epoch_transfer of { epoch : int }
  | Epoch_fence of { epoch : int; stale : int }
      (** an operation pinned to [stale] was refused by epoch [epoch] *)
  | Crash of { site : int; amnesia : bool }
  | Recover of { site : int; resynced : bool }
  | Partition of { n_groups : int }
  | Heal
  | Detector_suspect of { site : int }
  | Detector_trust of { site : int }
  | Wal_flush of { site : int; records : int }
      (** a flush barrier persisted this many buffered records *)
  | Wal_checkpoint of { site : int; kept : int; dropped_segments : int }
      (** checkpoint compaction: [kept] snapshot payloads replace
          [dropped_segments] segments *)
  | Wal_full of { site : int }
      (** a flush or checkpoint was refused: disk full *)
  | Wal_replay of { site : int; replayed : int; truncated : int; corrupt : bool }
      (** recovery replayed the durable prefix; [corrupt] means an invalid
          record was found before the tail (bit rot detected) and the
          suffix was discarded pending resync *)
  | Store_fault of { site : int; fault : string }
      (** a storage fault was injected at the site's WAL *)
  | Commit_point of { txn : string }
      (** the coordinator durably logged its commit intent — the decision
          survives a crash from here on *)
  | Txn_redrive of { txn : string; outcome : string }
      (** a recovered coordinator re-drove an in-doubt transaction *)
  | Coop_term of { txn : string; outcome : string }
      (** a participant ran cooperative termination for a stuck blocker:
          outcome is adopted-commit / adopted-abort / coop-commit /
          presumed-abort / inconclusive *)
  | Orphan_gc of { site : int; resolved : int }
      (** the orphan reaper swept the repositories from [site] *)
  | Deadlock of { victim : string; cycle : string list }
      (** the waits-for cycle detector sentenced a victim *)
  | Txn_decide of { txn : string; site : int; committed : bool }
      (** a driver (coordinator, recovered coordinator, or takeover
          holder) rendered a commit/abort verdict for the transaction.
          Emitted at the verdict, before any idempotent finalize guard —
          so every contending driver's decision lands on the bus and the
          [no_divergence] monitor ({!Atomrep_chaos.Monitors}) can check
          that no two drivers ever decided differently *)
  | Takeover_acquire of { txn : string; site : int; term : int }
      (** the site won a takeover lease at [term] and adopts the drive *)
  | Takeover_fence of { txn : string; site : int; term : int; granted : int }
      (** a driver at stale [term] was refused by a repository holding a
          lease at [granted] and halted its drive *)
  | Quiesce of { up : int; n_sites : int; partitioned : bool }
      (** the runtime's end-of-run fairness signal: network state at the
          horizon ([up] live sites out of [n_sites], partition in force or
          not). Liveness monitors ({!Atomrep_chaos.Monitors}) treat a trace
          whose final [Quiesce] shows a healed, fully-live network as one
          where fairness held — every blocked obligation had its chance to
          resolve — and only then flag unresolved obligations *)
  | Span_begin of { span : int; parent : int option; label : string }
  | Span_end of { span : int; outcome : string }
  | Shed of { txn : string; reason : string }
      (** admission control shed the transaction (queue overflow, deadline
          expiry, or class eviction) — it must still abort cleanly
          everywhere; the shed-safety monitor checks exactly that *)
  | Repo_resolve of { txn : string; committed : bool }
      (** one repository (site = the repository) newly installed a terminal
          record for the transaction — its tentative entries there are
          resolved from here on, whatever the delivery path (commit/abort
          broadcast, anti-entropy gossip, or a vote offer) *)
  | Session_commit of { session : int; txn : string; counter : int; site : int }
      (** an open-loop transaction's Lamport commit timestamp, keyed by
          its session stream and emitted at timestamp assignment (the
          commit point), so trace order is clock-assignment order even
          when partitions delay the vote drive — the per-session
          monotonicity monitor checks counters strictly increase per
          session *)
  | Breaker of { site : int; state : string }
      (** the per-site circuit breaker transitioned to
          closed / open / half-open *)
  | Rpc_hedge of { src : int; dst : int; delay : float }
      (** a lagging quorum round re-issued its request to spare member
          [dst] after waiting [delay] (the adaptive hedging percentile) *)
  | Rpc_outcome of { src : int; dst : int; ok : bool; elapsed : float }
      (** per-destination multicast outcome, emitted for every reply —
          including stragglers that arrive after the gather already fired *)
  | Slow_inject of { site : int; mode : string }
      (** the fail-slow fault channel changed at the site: [mode] names the
          inflation law (constant / heavy / creeping) or ["healed"] *)
  | Detector_slow of { site : int; slow : bool; score : float }
      (** the latency-aware detector raised ([slow = true]) or cleared a
          graded slow-suspicion verdict; [score] is the site's latency
          score relative to the cluster median at the transition *)

type event = {
  id : int; (** global emission index *)
  time : float; (** simulated time *)
  site : int; (** emitting site; [-1] for system-level events *)
  lamport : int; (** per-site Lamport stamp (strictly increasing per site) *)
  prev : int option; (** previous event at the same site (program order) *)
  cause : int option; (** cross-site happens-before predecessor *)
  kind : kind;
}

type t

val create : ?enabled:bool -> ?observes:string list -> n_sites:int -> unit -> t
(** A collecting bus for sites [0 .. n_sites-1] plus the system lane [-1].

    Without [observes] the bus is {e full}: it stores every event. With
    [observes] (a list of {!kind_label}s, typically the selected monitors'
    {!Atomrep_chaos.Monitors.observed_labels}) it is {e judge-only}: it
    stores the events of those kinds and of spans ([Span_begin] and
    [Span_end], which [Runtime.run] turns into its [span.*] histograms),
    and keeps only the Lamport stamp of every other emit. Every emit on
    either bus takes the next id and advances its site's Lamport counter
    and program order, so each stored event is equal, field for field, to
    the event the same emit makes on a full bus, and an [(event #N)] in a
    verdict names the same event as a full-bus replay. A label no kind
    carries raises [Invalid_argument]. *)

val null : t
(** The shared disabled bus: every emit is a no-op. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Source of simulated time for event stamps (set by whoever attaches the
    bus to a simulation, e.g. {!Atomrep_sim.Network.set_trace}). Defaults
    to a constant 0. *)

val emit : t -> site:int -> ?cause:int -> kind -> int
(** Record an event and return its id, or [-1] when the bus is disabled.
    A negative [cause] (from a disabled bus) is treated as absent. The bus
    keeps [kind] itself, not a copy: a kind is immutable, so an emitter
    may pass one shared value for many events (the network interns one
    [Rpc_send] and one [Rpc_recv] per link). *)

val mask : name:string -> string list -> bool array
(** [mask ~name labels]: one slot per kind tag, [true] at the tags of
    [labels]. The one label-to-mask function: spec monitors build their
    observed sets with it, and {!create} its judge-only bus. Raises
    [Invalid_argument] naming [name] and the first label no kind
    carries. *)

val events : t -> event list
(** The stored events, in id order. Builds one {!event} record per stored
    event: O(stored) time and allocation. *)

val iter : ?from_id:int -> ?kinds:bool array -> t -> (event -> unit) -> unit
(** [iter ~from_id ~kinds t f] applies [f] to the stored events whose id
    is at least [from_id] (default 0) and, when [kinds] is given, whose
    {!kind_tag} is [true] in it, in id order. [kinds] has one slot per
    kind tag, as {!mask} builds it. The walk starts at the first stored
    event with id [from_id] or above (found in O(1) on a full bus, by
    binary search on a judge-only one) and tests [kinds] before building
    anything, so it builds a record only for each event [f] receives. *)

val chunk_size : int
(** Events per storage chunk. A bus stores its events in chunks of
    columns (time, site, [prev], [cause], kind, and on a judge-only bus
    the id) and the Lamport stamp of every id in a column of the same
    chunking; growing adds a chunk and never copies a stored event. *)

val length : t -> int
(** The number of ids issued, one per emit: on a full bus, the number of
    events stored. *)

val get : t -> int -> event
(** [get t id] — O(1) on a full bus, building a fresh record from the
    stored columns; raises [Invalid_argument] on an out-of-range id or a
    judge-only bus (fold one with {!iter}). *)

val span_begin : t -> site:int -> ?parent:int -> string -> int
(** Open a span (a [Span_begin] event) and return its span id, [-1] when
    disabled. [parent] is the enclosing span's id. *)

val span_end : t -> site:int -> span:int -> outcome:string -> unit
(** Close a span. No-op when disabled or when [span] is negative. *)

type span = {
  span_id : int;
  label : string;
  span_parent : int option;
  span_site : int;
  t_begin : float;
  t_end : float option; (** [None]: still open at the horizon *)
  span_outcome : string option;
}

val spans : t -> span list
(** Reconstructed span tree, in open order. Reads only the span events
    ({!iter} with the span kinds' mask). *)

val span_durations : t -> (string * Atomrep_stats.Summary.t) list
(** Per-label duration histograms over the closed spans, label-sorted. *)

val n_kind_tags : int
(** Number of kind constructors. *)

val kind_tag : kind -> int
(** Dense tag of the constructor, in [\[0, n_kind_tags)]: one array slot
    per kind for per-kind tables (monitor masks, the bus's record
    table). *)

val kind_label : kind -> string
(** Short stable name of the constructor ("rpc_send", "txn_commit", ...),
    unique per tag. *)

val label_of_tag : int -> string
(** The {!kind_label} of the kinds with this tag. *)

val tag_of_label : string -> int option
(** The tag whose {!kind_label} is the given string; [None] for a string
    no constructor carries. *)

val fields : kind -> (string * Json.t) list
(** The kind's description: its named fields, in a fixed order, with
    their values ([Heal] has none). The one per-kind table every view
    of an event reads: the exporters' [args] object ({!Export}), the
    text line ({!pp_event}) and postmortem targeting, which reads the
    fields naming a transaction ([txn], [blocker], [victim], [cycle];
    {!Postmortem}). A new kind needs its arm here and nowhere else. *)

val pp_kind : Format.formatter -> kind -> unit
(** The {!kind_label}, then each of the kind's {!fields} as [name=value]:
    strings bare, a list bracketed and comma-separated, any other value
    as JSON prints it ([lock_wait txn=T3 blocker=T1],
    [deadlock victim=T3 cycle=\[T3,T1\]], [heal]). *)

val pp_event : Format.formatter -> event -> unit
(** One line: the header [\[time\] site=S L=lamport #id], then
    {!pp_kind}, e.g.
    [\[    12.0\] site=1  L=4     #7     lock_wait txn=T3 blocker=T1]. *)
