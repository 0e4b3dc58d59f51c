(** Chaos campaigns: sweep seeds x schemes x fault profiles, machine-check
    the monitor catalogue after every run, and turn any violation into a
    deterministic, shrunk reproducer.

    Every run is one {!task}: a fresh {!Atomrep_replica.Runtime.run}
    whose [install_faults] installs a {!Nemesis} schedule, judged by
    {!Monitors.check_run} — by default its [commit_atomicity] (the
    scheme's local atomicity property) and [common_order] (one
    system-wide serialization order) entries. Determinism of the
    simulator makes a task a self-contained reproducer.

    One sweep runs every task list — a chaos campaign, the regression
    fixtures: {!sweep} deals the tasks over OCaml 5 domains, merges the
    results back in task order (so nothing it returns depends on the
    domain count), then shrinks violations by bisection in the main
    domain, in task order, with fresh monitor state per shrink candidate.
    The chaos cell table and the fixture verdicts are folds over its
    results. *)

open Atomrep_replica

type profile = { profile_name : string; nemesis : Nemesis.t }

val builtin_profiles : profile list
(** crashes, amnesia, partitions, flaky, skew, flapping, kills (staggered
    permanent site loss), storage_storm (amnesia plus torn writes, bit
    rot, lost flushes, and disk pressure against durable WALs — pair with
    {!storage_base}), coordinator_killer (commit-window ambushes plus
    light link flake — pair with {!termination_base} to prove the
    termination protocol survives what strands a [Disabled] run),
    takeover_storm (commit-window ambushes with fast coordinator heal,
    takeover-bid ambushes, rolling partitions, and link flake — pair with
    {!takeover_base} and a [monitors] selection to prove epoch-fenced
    adoption never diverges), overload_storm (rolling partitions and link
    flake timed to land inside {!overload_base}'s flash crowd — pair with
    {!overload_base} and the shed_safety/session_monotonic monitors),
    gray_storm (recurring fail-slow episodes plus light link flake — pair
    with {!gray_base} and the hedge_safety monitor to prove hedged
    early-quorum rounds never double-apply), and the composed storm. *)

val find_profile : string -> profile option

val profile : string -> profile
(** The builtin profile of that name; [Invalid_argument] if there is none. *)

val default_base : Runtime.config
(** The campaign's base configuration: the default replicated queue with a
    horizon sized for chaos runs. Override [base] to campaign against a
    different object set or a planted {!Replicated.mutant}. *)

val storage_base : Runtime.config
(** {!default_base} with WAL-backed (group-commit) repositories, small
    segments and an aggressive checkpoint period — the base the
    storage-fault profiles need to bite (on {!default_base}'s volatile
    repositories they are no-ops). *)

val termination_base : Runtime.config
(** {!default_base} with [Cooperative] termination and deadlock detection
    enabled — the base under which the [coordinator_killer] profile must
    leave zero stranded tentative entries and zero oracle violations. *)

val takeover_base : Runtime.config
(** {!termination_base} with coordinator takeover on — the base under
    which the [takeover_storm] profile must convert strandings into
    adopted commits with zero no-divergence monitor violations. *)

val overload_base : Runtime.config
(** {!default_base} under a flash-crowd open-loop plan (Zipf-skewed queue
    fanout over three objects at a 0.004/ms base rate with a 10x burst,
    precomputed from its own seed, so every scheme and seed replays the
    identical offered load) with the graceful-degradation surface on:
    bounded in-flight window with a shed-by-class admission queue and
    sojourn deadline, a finite per-transaction retry budget, and the
    per-site circuit breaker. The base the [overload_storm]
    profile (rolling partitions through the flash crowd) is meant to be
    survived with — zero shed-safety or atomicity violations while
    goodput degrades gracefully. Termination and deadlock stay at the
    defaults so CLI flags compose. *)

val gray_base : Runtime.config
(** {!default_base} with the gray-failure mitigation layer on
    ({!Atomrep_replica.Runtime.default_gray}: hedged early-quorum rounds,
    latency scoring, slow-site demotion) — the base the [gray_storm]
    profile is meant to be survived with: bounded latency and zero
    [hedge_safety] violations. *)

val reconfig_base : Runtime.config
(** A base sized for reconfiguration campaigns: five sites, a majority
    queue, a stretched arrival process so the kills profile's staggered
    site loss lands mid-workload, and the failure-detector-driven
    coordinator enabled ({!Atomrep_replica.Runtime.default_reconfig}).
    Pair with the [kills] profile to exercise epoch handoffs under
    progressive permanent site loss. *)

(** {1 Tasks} *)

type task = {
  base : Runtime.config;
  scheme : Replicated.scheme;
  profile : profile;
  seed : int;
  n_txns : int;
  intensity : float;  (** fault intensity scale ({!Nemesis.scale}) *)
}
(** One run: the reproducer tuple plus the base it runs on. *)

val configure : ?trace:Atomrep_obs.Trace.t -> task -> Runtime.config
(** The exact configuration the task runs. [trace] attaches a bus to the
    run (defaults to whatever [base] carries). *)

val run :
  ?monitors:Monitors.entry list ->
  ?trace:Atomrep_obs.Trace.t ->
  task ->
  Runtime.outcome * (string * string) list
(** Run the task and judge it ({!Monitors.check_run} on {!configure}):
    the one place a task runs. Without a [trace] the judge attaches its
    own judge-only bus when a selected monitor observes trace kinds. Runs
    that share one [trace] are each judged on their own events only. *)

(** {1 Violations} *)

type violation = {
  v_task : task;  (** the reproducer, shrunk when the sweep shrank it *)
  v_failures : (string * string) list; (** (monitor, failure description) *)
  v_postmortem : string option;
      (** path of the written causal postmortem, when the sweep ran with
          [postmortem_dir] *)
  v_flags : string list;
      (** the [atomrep chaos] flags that rebuild the run's base and monitor
          selection *)
}

val shrink : ?monitors:Monitors.entry list -> violation -> violation
(** Bisect the transaction count down and then halve the fault intensity
    while the violation persists; returns the smallest reproducer found
    (a local minimum — neither dimension is monotone). *)

val trace_violation :
  ?monitors:Monitors.entry list ->
  violation ->
  Atomrep_obs.Trace.t * Atomrep_obs.Postmortem.t
(** Replay a (shrunk) violation on a full bus — determinism reproduces
    the same failure, and the bus numbers its events as the judge-only
    bus of the sweep did — and slice the trace to the causal cone of the
    violating actions. *)

val write_postmortem :
  ?monitors:Monitors.entry list -> dir:string -> violation -> violation
(** Replay the violation by {!trace_violation} into
    [dir/postmortem-<slug>.txt], with the full trace beside it as
    [dir/trace-<slug>.jsonl] (the directory is created if needed), and
    record the postmortem's path in [v_postmortem]. *)

val replay_flags :
  base:Runtime.config -> monitors:Monitors.entry list -> string list -> string list
(** [replay_flags ~base ~monitors flags] is the {!violation.v_flags} of a
    run on [base] judged by [monitors]: the command-line [flags] that built
    [base], then [--ungated-rejoin] if [base] re-enables ungated rejoin,
    then a [--monitor] selection unless [monitors] is the default
    {!Monitors.history}. *)

val reproducer_line : violation -> string
(** A self-contained [atomrep chaos --repro ...] command line that replays
    the violation. *)

val failures_json : (string * string) list -> Atomrep_obs.Json.t
(** Failures as a JSON list of [{"monitor", "message"}] objects. *)

val violation_json : violation -> Atomrep_obs.Json.t
(** The violation as a JSON object: its tuple, {!reproducer_line},
    failures and postmortem path. *)

(** {1 Sweeps} *)

val grid :
  base:Runtime.config ->
  schemes:Replicated.scheme list ->
  profiles:profile list ->
  seeds:int ->
  intensities:float list ->
  n_txns:int ->
  task list
(** Seeds [0 .. seeds-1] for every scheme, profile and intensity, in the
    order scheme, profile, intensity, seed. *)

type result = {
  r_task : task;
  r_metrics : Runtime.metrics;
  r_failures : (string * string) list;  (** the run's own verdict *)
  r_violation : violation option;
      (** [Some] iff [r_failures] is nonempty: shrunk (and postmortem'd)
          when within the sweep's [max_shrinks], else at the task's tuple *)
}

val sweep :
  ?domains:int ->
  ?monitors:Monitors.entry list ->
  ?max_shrinks:int ->
  ?postmortem_dir:string ->
  flags:string list ->
  task list ->
  result list
(** Run every task, on [domains] worker domains (default
    [Domain.recommended_domain_count ()], capped by the task count; [1]
    runs everything in the calling domain), judged by [monitors] (default
    {!Monitors.history}). Results come back
    in task order and are identical for any domain count. Then, in the
    main domain and in task order, the first [max_shrinks] (default all)
    violations are {!shrink}ed and, with [postmortem_dir], get a
    {!write_postmortem} there. [flags] are the command-line
    flags that built the tasks' base, for the reproducer lines
    ({!replay_flags}). *)

(** {1 Chaos reports} *)

type cell = {
  c_scheme : Replicated.scheme;
  c_profile : string;
  c_runs : int;
  c_committed : int; (** summed over the cell's runs *)
  c_aborted : int;
  c_violations : int;
}

type report = {
  cells : cell list;
  violations : violation list;
  total_runs : int;
}

val report : result list -> report
(** The chaos table: one cell per run of consecutive results on the same
    scheme and profile (one per pair, for a {!grid}), plus every result's
    violation in task order. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Regression fixtures} *)

type fixture = {
  f_name : string;
  f_doc : string;
  f_task : task;
  f_flags : string list;
      (** the [atomrep chaos] flags that rebuild [f_task]'s base *)
  f_expect_violation : bool;
      (** [true]: the task must still violate (the bug must still
          reproduce); [false]: it must run clean *)
  f_check : Runtime.metrics -> (string * string) list;
      (** extra expectations on the run (e.g. adoptions happened);
          nonempty means the fixture failed even if the monitors agree *)
}

val fixtures : fixture list
(** The pinned reproducers:

    - [ungated_rejoin]: the ungated-rejoin double-dequeue — under the
      [Ungated_rejoin] mutant, a storm run loses a tentative append to
      crash-with-amnesia and a stale rejoined view double-serves an
      element. Must still violate.
    - [takeover_adopt_fence]: the coordinator-killer tuple whose dead
      coordinators force takeover adoptions and whose healed originals
      get lease-fenced. Must run clean, with at least one adoption and
      one fencing. *)

val find_fixture : string -> fixture option
val fixture_names : string list

val replay_fixtures :
  ?monitors:Monitors.entry list -> fixture list -> result list
(** Sweep each fixture's task without shrinking, with the fixture's
    [f_flags] in its reproducer line; one result per fixture, in order. *)

val fixture_holds : fixture -> result -> bool
(** The fixture's {!replay_fixtures} result matches [f_expect_violation]
    and every [f_check] expectation. *)
