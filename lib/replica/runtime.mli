(** Simulation runtime: drives transactions against replicated objects and
    verifies the generated histories.

    Each transaction runs at a home (front-end) site: Begin with a Lamport
    Begin timestamp, a script of operations executed sequentially through
    {!Replicated.execute} with bounded retries on conflicts, then a
    two-phase commit — phase 1 probes every touched object for a reachable
    final quorum, phase 2 assigns the Lamport commit timestamp and
    broadcasts commit records. Any unavailability, validation failure or
    retry exhaustion aborts the transaction (abort records are broadcast;
    blocked operations consult the coordinator when reachable to resolve
    lingering tentative entries).

    After a run, per-object behavioral histories are reconstructed in the
    form the formal model indexes them — Begin events ordered by Begin
    timestamp and Commit events by commit timestamp for the timestamp-based
    schemes, observed order for locking — and can be checked against the
    scheme's local atomicity property.

    This module keeps the transaction driver, the run wiring and the
    metrics projection; the rest of the runtime lives beside it in
    [atomrep_replica]: the configuration types below are defined once in
    [Runtime_config] and re-exported here, shared per-run state is
    [Run_state], admission control (in-flight window, queue, shed
    policies, circuit breaker, slot release) is [Admission], the single
    terminal transition plus every termination protocol (vote drives,
    cooperative termination and takeover, blocker resolution, recovery
    redrive, the orphan reaper) is [Term_driver], gray-failure routing
    and hedging is [Gray_policy.install], and the reconfiguration
    coordinator is [Reconfig_coord.install]. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_sim
open Atomrep_stats

type object_config = {
  obj_name : string;
  obj_spec : Serial_spec.t;
  obj_relation : Relation.t;
      (** the type's static relation; locking uses its dynamic relation
          ({!Replicated.scheme_relation}) *)
  obj_assignment : Assignment.t;
  obj_members : int list option;
      (** epoch 0's repository sites (default all sites); the assignment
          must be sized for exactly this member count *)
}

type op_request = { target : string; invocation : Event.Invocation.t }

type reconfig = {
  plan_override :
    (live:int list -> n_sites:int -> (int list * Assignment.t) option) option;
      (** test hook replacing {!Atomrep_quorum.Reassign.plan} *)
}

val default_reconfig : reconfig
(** No plan override. The detector runs with
    {!Atomrep_sim.Detector.start}'s defaults (site 0 probes every 40 with
    timeout 25 and suspects after 3 misses); [Reconfig_coord] wakes every
    60 with a cooldown of 150 and scores plans at p = 0.9 over a uniform
    operation mix. *)

type deadlock_mode =
  | No_deadlock  (** blocked operations rely on backoff and retry budgets *)
  | Detect
      (** waits-for graph with cycle detection; the youngest cycle member
          (largest Begin timestamp) is aborted as the victim *)
  | Wound_wait
      (** an older waiter wounds a younger Running blocker outright —
          preemptive, cycle-free, no graph *)

val deadlock_mode_name : deadlock_mode -> string

type shed_policy =
  | Reject_newest  (** queue full: shed the arriving transaction *)
  | Shed_reads_first
      (** queue full: an arriving write evicts the newest queued read
          (reads are sacrificed before writes); arriving reads, and writes
          finding no read to evict, are shed themselves *)

val shed_policy_name : shed_policy -> string

type admission = {
  max_in_flight : int;  (** bounded in-flight window *)
  queue_limit : int;  (** bounded admission queue; overflow sheds *)
  deadline : float;
      (** sojourn deadline: a transaction still queued, or entering a
          conflict retry, this long after arrival is shed (pre-commit
          only — a transaction past its commit point is never shed) *)
  adm_shed_policy : shed_policy;
  adm_breaker : bool;
      (** per-site circuit breaker over RPC-timeout signals, with
          {!Breaker.create}'s defaults (window 8, threshold 0.5, cooldown
          400 ms, 2 probes) *)
}

val default_admission : admission
(** 8 in flight, queue of 16, no deadline, [Reject_newest], no breaker. *)

type load = {
  arrivals : float array;
      (** precomputed arrival times (sim ms, nondecreasing) — open loop:
          offered load never adapts to system state. The run dispatches
          [min n_txns (Array.length arrivals)] transactions. *)
  home_of : int -> int;  (** home site per transaction index *)
  session_of : int -> int;
      (** session id per index (>= 0), for per-session monotonicity
          monitoring; sessions are emitted in Session_commit trace events *)
  class_of : int -> [ `Read | `Write ];
      (** shed class per index, consulted by [Shed_reads_first] *)
}

type gray = {
  hedge : bool;
      (** early-quorum gathers plus hedged re-issues: every quorum round
          fires its gather the moment a satisfying vote set answered, and
          once it lags the adaptive delay re-issues the call — first to
          primaries still lacking a reply (a fresh send re-rolls the
          straggling link), then to members routed out of the round —
          repositories are idempotent, so first-reply-wins is safe *)
  demote : bool;
      (** route quorum rounds away from slow-suspected sites (never below
          the round's quorum floor), and let the reconfiguration
          coordinator — when one is running — plan the site out of the
          epoch once its suspicion outlives [Reconfig_coord.demote_grace]
          (500 ms) *)
}
(** Gray-failure mitigation policy (DESIGN §3j). The detector scores
    latencies with {!Atomrep_sim.Detector.default_slow_config}; the hedge
    delay and the spare count are [Gray_policy]'s constants (p95 of
    recent RPC latencies, at least 2 ms; 2 spares per round). *)

val default_gray : gray
(** Hedging and demotion both on. *)

type config = {
  seed : int;
  n_sites : int;
  scheme : Replicated.scheme;
  objects : object_config list;
  n_txns : int;
  arrival_mean : float; (** mean transaction inter-arrival time *)
  script : Rng.t -> int -> op_request list; (** per-transaction operations *)
  install_faults : Network.t -> unit;
  horizon : float; (** simulated-time cap for a run whose work never ends *)
  anti_entropy_every : float option;
      (** start per-object gossip ({!Replicated.start_anti_entropy}) at
          this period *)
  reconfig : reconfig option;
      (** enable the failure-detector-driven reconfiguration coordinator:
          when a current epoch member is suspected dead, propose the best
          satisfying assignment over the live view and hand off via
          {!Replicated.reconfigure}. [None] pins epoch 0 for the whole
          run (the pre-reconfiguration behavior). *)
  trace : Atomrep_obs.Trace.t option;
      (** attach a trace bus: the whole stack (network, RPC, detector,
          quorum protocol, transactions) emits causally linked events into
          it, and per-span-kind latency histograms land in the registry.
          [None] (the default) runs the zero-cost disabled path — metrics
          and histories are bit-identical either way. *)
  mutant : Replicated.mutant option;
      (** negative testing only: plant one deliberate bug
          ({!Replicated.mutant}) in every object and, for [Ungated_rejoin],
          the network's rejoin gate (default [None]) *)
  durability : Repository.durability;
      (** stable-storage model for every repository (default [Volatile],
          the original behavior): [Durable] backs each site with a
          simulated WAL whose flush barriers, crash-truncation and
          checkpoint compaction the storage fault schedules target. *)
  termination : Atomrep_txn.Termination.mode;
      (** crash-safe termination (default [Disabled], the historical
          give-up): [Presumed_abort_only] adds the durable commit point,
          recovery redrive, and presumed abort for coordinators that died
          before it; [Cooperative] adds participant-driven quorum
          termination for unreachable coordinators and the orphan
          reaper; [Takeover] makes each cooperative terminator first win
          an epoch-fenced lease. *)
  deadlock : deadlock_mode;
      (** deadlock policy for blocked operations (default [No_deadlock]) *)
  admission : admission option;
      (** admission control and load shedding (default [None], the ungated
          runtime — bit-identical to the historical behavior): bound the
          in-flight window, queue the overflow, shed per policy, and
          optionally gate RPC traffic per destination with a circuit
          breaker *)
  retry_budget : int;
      (** per-transaction retry budget shared by conflict backoffs,
          commit-quorum re-probes and commit-drive re-drives (default
          [max_int], never exhausts — the budget caps retry amplification
          under overload without touching the legacy draw sequence) *)
  load : load option;
      (** open-loop arrival plan (default [None]: the closed-form Poisson
          process over [arrival_mean]); see {!Atomrep_workload.Openloop}
          for building plans with rate curves and skewed object
          popularity *)
  timely_bound : float;
      (** commits whose arrival-to-commit sojourn is within this bound
          count as [timely_commits] — the goodput open-loop load sweeps
          compare (default [infinity]: every commit is timely); pure
          accounting, never affects scheduling *)
  gray : gray option;
      (** gray-failure mitigation (default [None] — the historical
          runtime, bit-for-bit: no latency scoring, every quorum round
          targets all epoch members and gathers all-or-timeout) *)
  fail_slow : (int * float * Network.slow_mode) list;
      (** scripted fail-slow injections: [(site, onset, mode)] arms
          {!Network.set_fail_slow} at each onset — persistent service-time
          inflation, the gray-failure fault (default empty) *)
  profile : Atomrep_obs.Profile.t;
      (** phase profiling (default [Atomrep_obs.Profile.null], one branch
          per instrumentation site): when enabled, it is installed as the
          ambient profile for the run's extent, and the engine dispatch
          loop, network sends, trace publishes, quorum gathers and WAL
          flushes accumulate wall-time + allocation per phase into it.
          Profiling reads no simulation RNG and never perturbs a run. *)
  timeseries : Atomrep_obs.Timeseries.t;
      (** sim-time time-series (default [Atomrep_obs.Timeseries.null]):
          when enabled, a recurring engine event samples committed /
          aborted / blocked-wait deltas, WAL flushes, messages sent, event
          queue depth ([Engine.pending]: live events, cancelled timers not
          counted) and the live stranded gauge into the series'
          fixed-width windows, takes a last sample where the run ends and
          calls [Timeseries.finish] there. The sampler draws no RNG and is
          a daemon, so it never extends a run: every metric, [duration]
          included, is bit-identical with it on or off. *)
}

val default_config : config
(** A single replicated queue, three sites, no faults; override fields as
    needed. *)

val default_queue_assignment : n_sites:int -> Assignment.t
(** Majority initial and final quorums for Enq and Deq. *)

val queue_objects : n_sites:int -> object_config list
(** One replicated queue, ["queue"], on [n_sites] sites: its minimal static
    relation and {!default_queue_assignment} ({!default_config}'s objects
    at three sites). *)

val max_retries : int
val retry_delay : float
val retry_delay_cap : float

val backoff_delay : Rng.t -> attempt:int -> float
(** The capped exponential backoff with jitter used for conflict retries
    (at most [max_retries] = 8 per operation) and commit-quorum re-probes:
    always within [[0.5 *. retry_delay *. 2^attempt, retry_delay_cap]]
    (25 ms base, 400 ms cap; exposed so the bound can be property-tested). *)

type metrics = {
  committed : int;
  aborted : int;
  unavailable_aborts : int; (** aborts caused by missing quorums *)
  rejected_aborts : int; (** aborts caused by scheme validation *)
  conflict_aborts : int; (** aborts caused by retry exhaustion *)
  blocked_waits : int; (** operations that waited at least once *)
  ops_done : int;
  txn_latency : Summary.t;
  duration : float; (** simulated time where the work ended, or the horizon *)
  msgs_sent : int;
  msgs_dropped : int; (** lost to partitions, failed links, or loss *)
  msgs_duplicated : int;
  msgs_dead_dest : int; (** delivered while the destination was down *)
  rpc_timeouts : int;
  reconfigs : int; (** successful epoch handoffs *)
  reconfigs_refused : int; (** attempts refused (static scheme, bad plan) *)
  reconfigs_failed : int; (** attempts that lost a seal/transfer quorum *)
  reconfig_latency : Summary.t; (** wall-clock (simulated) per successful handoff *)
  suspicion_transitions : int; (** detector churn: raises plus clears *)
  final_epoch : int; (** largest epoch number in force at the run's end *)
  recoveries : int; (** WAL recoveries performed at rejoin *)
  recoveries_corrupt : int; (** recoveries that detected corruption *)
  recovery_replay : Summary.t; (** per-recovery replayed-record counts *)
  recovery_cost : Summary.t; (** per-recovery modeled time (ms) *)
  wal_flushes : int; (** successful flush barriers, summed over sites *)
  wal_flushed_records : int;
  wal_lost_flushes : int; (** flushes a fault silently dropped *)
  wal_full_rejections : int; (** flushes/checkpoints refused: disk full *)
  wal_torn_writes : int; (** torn records persisted at crashes *)
  wal_rotted : int; (** bit-rot corruptions applied *)
  wal_checkpoints : int;
  storage_faults : int; (** storage faults injected via the network *)
  coop_commits : int; (** commits completed by a substitute coordinator *)
  coop_aborts : int; (** aborts certified by termination vote rounds *)
  presumed_aborts : int; (** recovery aborts of intent-less transactions *)
  deadlock_aborts : int; (** victims of the deadlock policy *)
  redrives : int; (** in-doubt transactions re-driven at recovery *)
  orphans_reaped : int; (** terminal transactions the reaper re-broadcast *)
  stranded_entries : int;
      (** tentative entries still unresolved at the run's end, summed over
          every repository of every object *)
  decision_log_writes : int; (** successful decision-log flushes *)
  blocked_latency : Summary.t; (** per-operation time spent blocked *)
  takeover_leases : int; (** takeover leases won (lease_need grants) *)
  takeover_adoptions : int;
      (** in-doubt commits completed under a takeover lease (a subset of
          [coop_commits]) *)
  takeover_fenced : int; (** vote rounds rejected as stale by a newer lease *)
  takeover_contended : int; (** lease bids that failed to reach lease_need *)
  rebroadcasts_suppressed : int;
      (** duplicate terminal status re-broadcasts deduplicated per site *)
  stranded_live : int;
      (** live gauge of transactions currently observed stranded (blocked
          on a dead coordinator, not yet resolved) at the run's end — unlike
          [stranded_entries] this counts transactions, not entries, and is
          maintained incrementally (strand observed / resolution) *)
  shed : int;
      (** transactions shed by admission control (queue overflow, class
          eviction, deadline expiry) or mid-flight deadline sheds — every
          shed is also counted in [aborted] *)
  timely_commits : int;
      (** commits within [timely_bound] of arrival (equals [committed]
          at the default bound) *)
  retries_spent : int;
      (** retries consumed across all transactions (conflict backoffs,
          commit-quorum re-probes, commit-drive re-drives) *)
  retries_budget_exhausted : int;
      (** transactions that ran out of retry budget and aborted (or gave
          up the commit drive as in-doubt) *)
  sojourn : Summary.t;
      (** admission→verdict sojourn time per transaction, shed ones
          included (for those it is the arrival→shed wait) *)
  breaker_trips : int;  (** circuit-breaker transitions into [Open] *)
  hedges : int;  (** hedged re-issues fired after the adaptive delay *)
  hedge_wins : int;
      (** hedged (spare) replies that arrived before their round's gather
          fired — the re-issue did useful work *)
  hedge_late : int;
      (** straggler replies arriving after their gather had already fired
          — counted, never re-driving the gather *)
  demoted_rounds : int;
      (** quorum rounds routed away from at least one slow-suspected site *)
  slow_suspicions : int;
      (** slow-suspicion transitions (raises plus clears), the graded
          detector's churn — 0 without a [gray] config *)
}

type outcome = {
  metrics : metrics;
  histories : (string * Behavioral.t) list;
      (** per-object histories, model-ordered for the scheme *)
  registry : Atomrep_obs.Metrics.t;
      (** every counter/gauge/histogram the run recorded — [metrics] is a
          fixed-shape projection of this; exporters serialize the registry *)
}

val run : config -> outcome
(** Run one simulation. Probes, gossip, faults, sweeps and the sampler
    are {!Atomrep_sim.Engine} daemons, so the run ends where its work ends:
    no foreground event is left, no transaction awaits a verdict from an
    enabled termination protocol, and no tentative entry awaits the
    reaper. [Trace.Quiesce] and [duration] mark that point. *)

val check_atomicity : config -> outcome -> (string * string) list
(** Check every object's history against the scheme's local atomicity
    property; returns (object, failure description) pairs — empty means
    every history satisfies the property. *)

val check_common_order : config -> outcome -> (string * string) list
(** Check that committed transactions are serializable in one system-wide
    order (commit-timestamp order for hybrid and locking, Begin-timestamp
    order for static) at every object — the paper's definition of an atomic
    multi-object system. *)
