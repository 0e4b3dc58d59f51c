(** The monitor catalogue: every oracle the chaos campaigns can gate on,
    expressed as declarative {!Atomrep_obs.Spec_monitor} machines.

    Each entry names a property, says whether it is a safety property
    (violated by a specific event) or a liveness property (an obligation
    judged at quiesce), and carries its spec: a value built once, which
    states the trace kinds it observes and is instantiated per run with
    a {!ctx} — the run's configuration and outcome. Trace-level monitors
    read only the trace; the history-based oracles
    ({!Atomrep_replica.Runtime.check_atomicity},
    {!Atomrep_replica.Runtime.check_common_order}) judge the outcome at
    quiesce. Every liveness obligation (and [shed_safety]'s residual
    leg) has one shape: it is reported only when the run's end-of-run
    fairness signal — the final {!Atomrep_obs.Trace.Quiesce} event —
    says the network ended healed and fully live, and only once it has
    stood for {!grace}.

    The catalogue is the only oracle: every judged run goes through
    {!check_run}, whose default selection is {!history}.

    The catalogue:

    - [commit_atomicity] — every object's behavioral history satisfies
      the scheme's local atomicity property (safety, at quiesce).
    - [common_order] — committed transactions serialize in one
      system-wide order at every object (safety, at quiesce).
    - [no_divergence] — no two drivers ever render opposite verdicts for
      the same transaction (safety, per-txn keyed machine).
    - [quorum_intersection] — the static assignment satisfies every
      dependency constraint, and no transaction commits after an
      operation whose latest quorum attempt fell short (safety).
    - [commit_durability] — nothing is reported committed before a write
      quorum of repositories stored each of its final-quorum entries
      (safety, the eMonitor-CommitDurability shape: per-entry stored-site
      sets checked at the commit event).
    - [shed_safety] — a transaction shed by admission control is never
      reported committed, and once the network heals no repository still
      holds one of its tentative entries (safety; the residual-entry leg
      is fairness- and grace-gated like a liveness obligation).
    - [session_monotonic] — commit timestamps within one client session
      are strictly increasing (safety, per-session keyed machine; only
      open-loop plans emit session commits).
    - [stranded_entries] — under [Cooperative] or [Takeover] termination
      with fairness, the stranded-entry count and the live
      stranded-transaction gauge both drain to zero (liveness).
    - [blocked_liveness] — every operation that blocked resolves (grant,
      commit, abort, or deadlock sentence) once partitions heal and all
      sites are back up (liveness, grace-windowed).
    - [indoubt_liveness] — every durable commit point reaches a verdict
      (decide, redrive, or cooperative termination) under an enabled
      termination protocol with fairness (liveness, grace-windowed). *)

open Atomrep_replica

type ctx = {
  cfg : Runtime.config;
  outcome : Runtime.outcome;
}
(** What a spec is instantiated with, available once the run finished. *)

type kind = Safety | Liveness

type entry = {
  e_name : string;  (** the spec's name *)
  e_doc : string;  (** one-line property statement *)
  e_kind : kind;
  e_spec : ctx Atomrep_obs.Spec_monitor.t;
      (** built once; its {!Atomrep_obs.Spec_monitor.observed} kinds are
          known before any run, so {!check_run} builds the judge-only
          bus from them *)
}

val grace : float
(** Liveness grace window, in simulated ms: the whole retry budget, a few
    RPC round trips and two reaper sweeps. An obligation is reported at
    quiesce only when it has stood at least this long; one opened closer
    to the horizon never had a fair chance to resolve. *)

val registry : entry list
(** Every monitor, catalogue order. *)

val history : entry list
(** [commit_atomicity] and [common_order]: the paper's correctness
    criterion, and the default selection wherever a run is judged
    ({!check_run}). Neither observes a trace kind, so a run
    judged by them alone needs no bus. *)

val names : string list
val find : string -> entry option

val selection_name : entry list -> string
(** The [--monitor] value that selects exactly these entries: ["all"] for
    the whole catalogue, else their comma-separated names. *)

val of_names : string -> (entry list, string) result
(** Parse a [--monitor] selection: ["all"] (the whole catalogue),
    ["safety"] / ["liveness"] (one kind), or a comma-separated list of
    entry names. [Error msg] names the first unknown monitor. *)

val selection_doc : string
(** Help text enumerating the valid selections (for CLI man pages). *)

val run :
  ?from_id:int ->
  entry list ->
  ctx ->
  Atomrep_obs.Trace.t ->
  Atomrep_obs.Spec_monitor.violation list
(** Instantiate the selected entries fresh as one conjunction (name
    ["monitors"], each child short-circuiting independently) — no verdict
    bleed between runs or shrink candidates — fold the trace from event
    [from_id] (default 0) on, quiesce. *)

val observed_labels : entry list -> string list
(** Union of the entries' observed kind labels, sorted, deduplicated: the
    kinds {!check_run}'s judge-only bus stores. *)

val check_run :
  ?monitors:entry list ->
  Runtime.config ->
  Runtime.outcome * (string * string) list
(** Run once and judge it: the one code path that gates a run. The
    selected entries are the oracles (default {!history}); each spec is
    instantiated fresh for this run — no verdict bleeds between runs or
    shrink candidates — folded over the run's events, and quiesced.
    Failures come back in {!Atomrep_obs.Spec_monitor.failures} shape.

    When the configuration carries no bus and some selected entry
    observes a trace kind ({!observed_labels} non-empty), a judge-only
    bus ({!Atomrep_obs.Trace.create} [~observes]) is attached: it stores
    only the observed kinds and spans, and numbers events as a full bus
    would. The default selection runs untraced; a bus the caller passes
    is used as it is. The fold starts at the bus length noted before the
    run, so runs that share one bus are each judged on their own events
    only. When the configuration's profile is enabled, monitor stepping
    is recorded in it. Tracing does not perturb the run, so monitor-gated
    reproducer tuples still replay deterministically. *)
