(** The seed-sweep explorer: monitored campaigns fanned out over OCaml 5
    domains, plus the named regression fixtures it replays.

    A sweep is seeds x intensities for every scheme x profile pair, every
    run judged by a {!Monitors} selection (default: the whole catalogue).
    Runs are distributed round-robin over [domains] worker domains — each
    run owns all of its state (engine, network, trace bus, RNG, metrics
    registry), so runs parallelize without sharing — and results are
    merged back in task order, making the report independent of the
    domain count. Every violation is then shrunk {e in the main domain},
    in task order, with fresh monitor state per shrink candidate: the
    same sweep always yields the same shrunk reproducers.

    Fixtures pin empirically-found violations (and hardened-path clean
    runs) as named tuples the explorer can {!replay}: regression armor
    that the bug a campaign once caught still reproduces, and that the
    fix still holds. *)

open Atomrep_replica

type task = {
  t_scheme : Replicated.scheme;
  t_profile : Campaign.profile;
  t_seed : int;
  t_intensity : float;
}

type report = {
  x_tasks : int;  (** runs executed *)
  x_committed : int;
  x_aborted : int;
  x_violations : Campaign.violation list;
      (** in task order; the first [max_shrinks] are shrunk *)
  x_shrunk : int;  (** how many of [x_violations] were shrunk *)
  x_domains : int;
  x_wall_s : float;
}

val sweep :
  ?domains:int ->
  ?n_txns:int ->
  ?monitors:Monitors.entry list ->
  ?max_shrinks:int ->
  ?postmortem_dir:string ->
  ?flags:string list ->
  base:Runtime.config ->
  schemes:Replicated.scheme list ->
  profiles:Campaign.profile list ->
  seeds:int ->
  intensities:float list ->
  unit ->
  report
(** Sweep seeds [0 .. seeds-1] x [intensities] for every scheme x profile
    pair on [domains] domains (default
    [Domain.recommended_domain_count ()], capped by the task count;
    [1] runs everything in the calling domain). [monitors] defaults to
    the full catalogue. At most [max_shrinks] violations (default 4,
    earliest tasks first) are bisection-shrunk and, with
    [postmortem_dir], replayed under tracing into causal postmortems;
    the rest are reported at their original tuples. [flags] are the
    command-line flags that built [base], for the reproducer lines
    ({!Campaign.run_campaign}). *)

(** {1 Regression fixtures} *)

type fixture = {
  f_name : string;
  f_doc : string;
  f_base : Runtime.config;
  f_scheme : Replicated.scheme;
  f_profile : Campaign.profile;
  f_seed : int;
  f_n_txns : int;
  f_intensity : float;
  f_expect_violation : bool;
      (** [true]: the tuple must still violate (the bug must still
          reproduce); [false]: it must run clean *)
  f_check : Runtime.outcome -> (string * string) list;
      (** extra expectations on the outcome (e.g. adoptions happened);
          nonempty means the fixture failed even if the monitors agree *)
}

val fixtures : fixture list
(** The pinned reproducers:

    - [ungated_rejoin]: the PR 1 double-dequeue — with resync gating and
      commit piggyback disabled, a storm run loses a tentative append to
      crash-with-amnesia and a stale rejoined view double-serves an
      element. Must still violate.
    - [takeover_adopt_fence]: the coordinator-killer tuple whose dead
      coordinators force takeover adoptions and whose healed originals
      get lease-fenced. Must run clean, with at least one adoption and
      one fencing. *)

val find_fixture : string -> fixture option
val fixture_names : string list

type replay_result = {
  rr_fixture : fixture;
  rr_failures : (string * string) list;  (** what the monitors reported *)
  rr_checks : (string * string) list;  (** failed [f_check] expectations *)
  rr_ok : bool;
      (** verdict matches [f_expect_violation] and every check passed *)
}

val replay : ?monitors:Monitors.entry list -> fixture -> replay_result
(** Replay the fixture's tuple under the monitor selection (default: the
    whole catalogue) and judge it against its expectations. *)
