(** Simulated network of sites with crashes, partitions and message loss
    (paper, §3: sites crash; links lose messages; long-lived failures cause
    partitions in which functioning sites cannot communicate).

    Messages are closures delivered at the destination after an
    exponentially distributed latency, unless the destination is down at
    delivery time, the message is dropped (link failure), or source and
    destination lie in different partition groups at send time. Beyond the
    basic model the network supports a chaos-testing fault surface:
    probabilistic message duplication, latency spikes (which reorder
    messages), asymmetric one-way link failures, and crash-with-amnesia
    where volatile state is lost while stable storage survives — the
    listeners let {!Atomrep_replica.Repository} owners model the paper's
    stable-storage split without the network knowing about repositories.

    A site that crashes plainly loses nothing it already handed to the
    application; only {!crash_with_amnesia} signals volatile-state loss. *)

type stats = {
  mutable sent : int; (** [send] calls *)
  mutable dropped : int; (** lost to partitions, failed links, or loss *)
  mutable duplicated : int; (** extra deliveries scheduled *)
  mutable dead_dest : int; (** arrived while the destination was down *)
  mutable rpc_timeouts : int; (** RPCs that gave up waiting (see {!Rpc}) *)
  mutable storage_faults : int; (** {!inject_storage_fault} calls *)
}

type slow_mode =
  | Slow_constant of float
      (** every message through the site takes [factor] times longer *)
  | Slow_heavy of { factor : float; p_tail : float; tail_factor : float }
      (** heavy-tailed: the base [factor] usually, but with probability
          [p_tail] a message draws the far worse [tail_factor] — the
          classic gray disk/NIC whose p99 explodes while its median only
          doubles *)
  | Slow_creeping of { rate : float; cap : float }
      (** creeping degradation: inflation grows linearly from 1.0 at
          [rate] per sim-time unit since onset, saturating at [cap] *)

type t

val create :
  Engine.t -> n_sites:int -> ?latency_mean:float -> ?drop_probability:float -> unit -> t

val engine : t -> Engine.t
val n_sites : t -> int

val site_up : t -> int -> bool
val crash : t -> int -> unit
val recover : t -> int -> unit

val crash_with_amnesia : t -> int -> unit
(** Crash the site and fire the {!on_amnesia} listeners: registered owners
    of volatile per-site state (lock tables, tentative log entries) drop
    it, while stable state survives. *)

val recover_resync : t -> int -> bool
(** Attempt recovery of an amnesiac site: if at least {!set_resync_quorum}
    peers are currently reachable, bring the site up, fire the
    {!on_rejoin} listeners (which model state transfer from reachable
    peers), and return [true]; otherwise leave it down and return [false]
    — the caller retries later. Gating rejoin on a resync quorum is what
    makes amnesia survivable: a lost tentative entry lives at some final
    quorum, and a resync set large enough to intersect every final quorum
    restores it before the site serves reads again. *)

val set_resync_quorum : t -> int -> unit
(** Peers an amnesiac site must reach before rejoining (default 0: rejoin
    unconditionally). For final quorums of size [f] on [n] sites, safety
    needs [n - f + 1]. *)

val on_amnesia : t -> (int -> unit) -> unit
val on_rejoin : t -> (int -> unit) -> unit

val on_recover : t -> (int -> unit) -> unit
(** Fired whenever a site comes back up — by {!recover} and by a
    successful {!recover_resync} (after the rejoin listeners). The
    termination layer uses this to replay the site's durable decision log
    and re-drive in-doubt transactions. *)

val on_commit_window : t -> (int -> unit) -> unit
(** Fired by {!note_commit_window}: a transaction homed at the site just
    entered its commit protocol. Targeted nemeses (coordinator killer)
    listen here; with no listener registered the note costs nothing and
    draws no randomness. *)

val note_commit_window : t -> site:int -> unit
(** Announce that a coordinator at [site] entered the [Committing]
    window (called unconditionally by the runtime). *)

val on_takeover : t -> (int -> unit) -> unit
(** Fired by {!note_takeover}: the site just started a takeover lease
    acquisition for a stuck transaction. Targeted nemeses (the
    takeover-storm's taker killer) listen here; with no listener the
    note costs nothing and draws no randomness. *)

val note_takeover : t -> site:int -> unit
(** Announce that [site] is bidding to take over a dead coordinator's
    in-doubt transaction. *)

val on_storage_fault : t -> (int -> Atomrep_store.Wal.fault -> unit) -> unit
(** Register an owner of per-site stable storage: fault schedules deliver
    storage faults through the network (like amnesia) so the simulator
    needs no knowledge of repositories or their WALs. *)

val inject_storage_fault : t -> site:int -> Atomrep_store.Wal.fault -> unit
(** Deliver a storage fault to the site's registered storage listeners and
    record a [Store_fault] trace event. A no-op (beyond the counter and the
    event) when nothing is registered or the site runs without a WAL. *)

val partition : t -> int list list -> unit
(** Install a partition: each list is a group; messages between different
    groups are lost. Every site not listed in any group forms its own
    singleton group (it is isolated). *)

val heal : t -> unit
(** Remove any partition. *)

val partitioned : t -> bool
(** Is connectivity currently degraded — a partition with more than one
    group in force, or any one-way failed link? The runtime samples this at
    the horizon for the {!Atomrep_obs.Trace.Quiesce} fairness signal that
    gates the liveness monitors. *)

val fail_link : t -> src:int -> dst:int -> unit
(** Fail the one-way link [src -> dst]: messages in that direction are
    dropped; the reverse direction is unaffected. *)

val heal_link : t -> src:int -> dst:int -> unit
val link_up : t -> src:int -> dst:int -> bool

val set_drop_probability : t -> float -> unit
val set_duplication : t -> float -> unit
(** Probability that a delivered message is delivered a second time, at an
    independently drawn latency. *)

val set_delay_spike : t -> probability:float -> factor:float -> unit
(** With the given probability a message's latency is multiplied by
    [factor], letting later messages overtake it (reordering). *)

val set_fail_slow : t -> site:int -> slow_mode -> unit
(** Install a persistent fail-slow ("gray") fault at the site: until
    {!clear_fail_slow}, every message into or out of the site has its
    latency inflated by the mode's law. Unlike a crash the site stays up,
    keeps answering probes, and never trips the binary failure detector —
    only latency-aware suspicion can see it. Emits a [Slow_inject] trace
    event. Installing a new mode over an old one replaces it (and resets
    the creeping-mode onset). *)

val clear_fail_slow : t -> site:int -> unit
(** Heal the site's fail-slow fault (no-op if none is installed). *)

val fail_slow : t -> site:int -> bool
(** Is a fail-slow fault currently installed at the site? *)

val set_skew_handler : t -> (site:int -> amount:int -> unit) -> unit
(** Install the handler {!inject_skew} forwards to. The runtime registers
    one that advances the site's Lamport clock, so fault schedules can
    inject bounded clock skew without a dependency on the clock layer. *)

val inject_skew : t -> site:int -> amount:int -> unit

val reachable : t -> int -> int -> bool
(** Both sites up, in the same partition group, and linked both ways. *)

val send : t -> src:int -> dst:int -> (unit -> unit) -> unit
(** Deliver the closure at [dst] (it runs only if [dst] is up at delivery
    time). Loss, latency, duplication and partitions apply; sending to self
    delivers with latency but never drops or duplicates. *)

val up_sites : t -> int list

val stats : t -> stats
(** Live counters for this network instance (shared, mutable). *)

val note_rpc_timeout : t -> unit
(** Record one timed-out RPC (called by {!Rpc}). *)

val set_router : t -> (src:int -> dst:int -> bool) option -> unit
(** Install (or clear) an RPC routing policy. When present, {!Rpc.call}
    consults it before sending: a refused destination is answered
    immediately with a timeout-equivalent [None] reply, without drawing
    any network randomness. The circuit breaker installs itself here so
    quorum traffic stops burning the full RPC timeout on sites that keep
    timing out. [None] (the default) routes everything. *)

val router_allows : t -> src:int -> dst:int -> bool
(** The installed policy's verdict ([true] when no policy is set). *)

val on_rpc_result : t -> (src:int -> dst:int -> ok:bool -> elapsed:float -> unit) -> unit
(** Observe per-destination RPC outcomes: [ok:true] for a reply that
    arrived within the timeout, [ok:false] for a timeout. [elapsed] is the
    sim-time from issue to outcome (the full configured timeout for a
    timed-out call), which is what latency-aware suspicion scores — a
    timeout is a censored sample, not a missing one. Router refusals are
    NOT reported — a breaker feeding on its own refusals would never see
    the recovery it is probing for. *)

val note_rpc_result : t -> src:int -> dst:int -> ok:bool -> elapsed:float -> unit
(** Report one RPC outcome to the listeners (called by {!Rpc}). *)

val set_trace : t -> Atomrep_obs.Trace.t -> unit
(** Attach a trace bus: the network stamps it with the engine clock and
    emits RPC send/recv/drop, crash/recover, and partition/heal events.
    The default bus is {!Atomrep_obs.Trace.null} (disabled, no cost). *)

val trace : t -> Atomrep_obs.Trace.t
(** The attached bus — layers above the network (RPC timeouts, quorum
    logic, the runtime) emit through this so one simulation shares one
    causally linked trace. *)
