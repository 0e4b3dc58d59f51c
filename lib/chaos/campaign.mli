(** Chaos campaigns: sweep seeds x schemes x fault profiles, machine-check
    the local-atomicity oracles after every run, and turn any violation
    into a deterministic, shrunk reproducer.

    Every run is a fresh {!Atomrep_replica.Runtime.run} whose
    [install_faults] installs a {!Nemesis} schedule; afterwards
    {!Monitors.check_run} judges it through the monitor catalogue — by
    default its [commit_atomicity] (the scheme's local atomicity property)
    and [common_order] (one system-wide serialization order) entries.
    Determinism of the simulator makes a (scheme, profile, seed, n_txns,
    intensity) tuple a self-contained reproducer, and bisection shrinks it
    before it is reported. *)

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
val profile_names : string list

type violation = {
  v_scheme : Replicated.scheme;
  v_profile : profile;
  v_seed : int;
  v_n_txns : int;
  v_intensity : float;
  v_failures : (string * string) list; (** (object, failure description) *)
  v_postmortem : string option;
      (** path of the written causal postmortem, when the campaign ran with
          [postmortem_dir] *)
  v_flags : string list option;
      (** the [atomrep chaos] flags that rebuild the run's base and monitor
          selection, or [None] when no [chaos] flag rebuilds its base *)
}

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
  violations : violation list; (** already shrunk *)
  total_runs : int;
}

val default_base : Runtime.config
(** The campaign's base configuration: the default replicated queue with a
    horizon sized for chaos runs. Override [base] to campaign against a
    different object set (e.g. a deliberately weakened relation). *)

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

val overload_plan : Atomrep_workload.Openloop.t
(** The flash-crowd open-loop plan {!overload_base} runs: Zipf-skewed
    queue fanout over three objects at a 0.004/ms base rate with a 10x
    burst — precomputed from its own seed, so every scheme and seed
    replays the identical offered load. *)

val overload_base : Runtime.config
(** {!default_base} under {!overload_plan} with the graceful-degradation
    surface on: bounded in-flight window with a shed-by-class admission
    queue and sojourn deadline, a finite per-transaction retry budget,
    and the per-site circuit breaker. The base the [overload_storm]
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

val configure :
  base:Runtime.config ->
  scheme:Replicated.scheme ->
  seed:int ->
  n_txns:int ->
  intensity:float ->
  ?trace:Atomrep_obs.Trace.t ->
  profile ->
  Runtime.config
(** The exact configuration a campaign run uses — exposed so tests can
    replay a single cell. [trace] attaches a bus to the run (defaults to
    whatever [base] carries). *)

val shrink :
  ?monitors:Monitors.entry list -> base:Runtime.config -> violation -> violation
(** Bisect the transaction count down and then halve the fault intensity
    while the violation persists; returns the smallest reproducer found
    (a local minimum — neither dimension is monotone). *)

val trace_violation :
  ?monitors:Monitors.entry list ->
  ?base:Runtime.config ->
  violation ->
  Atomrep_obs.Trace.t * Atomrep_obs.Postmortem.t
(** Replay a (shrunk) violation with tracing on — determinism reproduces
    the same failure — and slice the trace to the causal cone of the
    violating actions. *)

val write_postmortem :
  ?monitors:Monitors.entry list ->
  base:Runtime.config ->
  dir:string ->
  violation ->
  violation
(** {!trace_violation}, rendered to [dir/postmortem-<slug>.txt] with the
    full trace beside it as [dir/trace-<slug>.jsonl]; returns the violation
    with [v_postmortem] set. Creates [dir] if needed. *)

val replay_flags :
  base:Runtime.config -> monitors:Monitors.entry list -> string list -> string list option
(** [replay_flags ~base ~monitors flags] is the {!violation.v_flags} of a
    run on [base] judged by [monitors]: the command-line [flags] that built
    [base], plus a [--monitor] selection unless [monitors] is the default
    {!Monitors.history}. [None] when [base] re-enables ungated rejoin,
    which no [chaos] flag does. *)

val run_campaign :
  ?base:Runtime.config ->
  ?flags:string list ->
  ?n_txns:int ->
  ?intensity:float ->
  ?monitors:Monitors.entry list ->
  ?sample:int ->
  ?postmortem_dir:string ->
  schemes:Replicated.scheme list ->
  profiles:profile list ->
  seeds:int ->
  unit ->
  report
(** Sweep seeds [0 .. seeds-1] for every scheme x profile pair. With
    [postmortem_dir], every shrunk violation is replayed under tracing and
    a causal postmortem plus the full trace are written there. [flags] are
    the command-line flags that built [base] (default none), for the
    violations' reproducer lines. *)

val reproduce :
  ?base:Runtime.config ->
  ?monitors:Monitors.entry list ->
  ?sample:int ->
  ?trace:Atomrep_obs.Trace.t ->
  scheme:Replicated.scheme ->
  profile:profile ->
  seed:int ->
  n_txns:int ->
  intensity:float ->
  unit ->
  Runtime.outcome * (string * string) list
(** Replay one reproducer tuple, optionally under tracing. Replays that
    share one [trace] are each judged on their own events only. *)

val reproducer_line : violation -> string
(** A self-contained [atomrep chaos --repro ...] command line, or a note
    that no such line replays the run (see {!violation.v_flags}). *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
