(** Heartbeat failure detector (eventually-perfect style, ◇P in spirit),
    with optional latency-aware slow-suspicion.

    A designated monitor site probes every other site over the simulated
    network with jittered periods; a site that misses [suspect_after]
    consecutive probe replies becomes suspected, and any successful reply
    clears the suspicion. Probes are ordinary {!Rpc} calls, so the detector
    inherits every failure mode the paper's model admits: a suspicion may
    mean a crash, a partition separating the site from the monitor, or
    merely a slow link — the detector cannot tell, which is exactly why
    reconfiguration driven by it must be safe under false suspicion.

    Binary up/down suspicion is blind to {e gray} failures: a fail-slow
    site answers every probe just inside the timeout while dragging every
    quorum round to its pace. Supplying a {!slow_config} adds a graded
    [Suspect_slow] verdict alongside the binary one: per-site latency
    books (EWMA + windowed p99 over every [Network.note_rpc_result]
    sample, probes and workload alike) are scored against the cluster
    median, and a site whose score stays past the factor for a full streak
    is suspected slow — reversibly, since the same streak hysteresis
    clears it when its latencies rejoin the cluster. The
    [Network.on_rpc_result] listener scores every sample as it arrives:
    O(window) to fold it into the site's book, then O(n_sites) reads of
    the books' sorted mirrors and two medians over at most [n_sites]
    values. No window is copied or sorted.

    Determinism: probe jitter draws from the caller-supplied RNG (split it
    from the engine's stream, as {!Atomrep_replica.Runtime} does for
    gossip), and probe traffic rides the seeded simulation engine, so a
    (seed, config) pair replays the exact same suspicion timeline. Slow
    scoring draws nothing. *)

type t

type slow_config = {
  sc_alpha : float;  (** EWMA smoothing factor in (0,1] *)
  sc_window : int;  (** per-site latency window for the p99 *)
  sc_factor : float;
      (** suspicion threshold: score = max(ewma, p99) relative to the
          cluster median must reach this *)
  sc_after : int;  (** consecutive over-threshold samples to raise *)
  sc_clear : int;  (** consecutive under-threshold samples to clear *)
  sc_min_samples : int;  (** don't score a site on fewer samples *)
}

val default_slow_config : slow_config
(** alpha 0.2, window 64, factor 3.0, raise/clear streaks 5, min 8. *)

val start :
  Network.t ->
  rng:Atomrep_stats.Rng.t ->
  ?probe_every:float ->
  ?timeout:float ->
  ?suspect_after:int ->
  ?monitor:int ->
  ?slow:slow_config ->
  unit ->
  t
(** Begin probing every non-monitor site. [probe_every] (default 40) is the
    mean probe period; each site's first probe fires at a seeded phase
    offset uniform in [0, probe_every) and later probes jitter uniformly in
    [0.75, 1.25) of the period, so probe trains neither start nor drift
    into lock-step (at 50+ sites a synchronized train is a probe storm that
    perturbs the very latencies being measured). [timeout] (default 25)
    bounds each probe RPC; [suspect_after] (default 3) consecutive missed
    replies raise binary suspicion; [monitor] (default 0) is the probing
    site. While the monitor itself is down no probes are sent and timed-out
    probes are not counted as misses — a dead monitor must not poison its
    own view of the cluster. [slow] enables latency-aware slow-suspicion
    (disabled by default: absent, the detector behaves exactly as it did
    historically and registers no listeners). Probing never stops. *)

val monitor : t -> int

val suspected : t -> int -> bool
(** Is the site currently suspected (binary up/down)? The monitor never
    suspects itself. *)

val live : t -> int list
(** The monitor's current view: every site not currently suspected, in
    ascending order. This is a {e view}, not ground truth — a crashed site
    stays listed until its misses accumulate, and a slow site may be
    missing although up. *)

val slow_suspected : t -> int -> bool
(** Is the site currently suspected {e slow}? Always [false] without a
    [slow] config. Independent of binary suspicion: a gray site is
    typically up (probes answer) yet slow. *)

val slow_since : t -> int -> float option
(** Sim-time the site's current slow-suspicion was raised, [None] when not
    suspected slow — demotion policies escalate to reconfiguration only
    after a suspicion has persisted. *)

val slow_score : t -> int -> float
(** The site's current latency score (1.0 = at the cluster median, or not
    enough samples / no slow config). *)

val fast_sites : t -> int list
(** {!live} minus the slow-suspected: the sites a quorum round should
    prefer. *)

val latency_percentile : t -> q:float -> float option
(** The [q]-percentile of recently observed RPC latencies pooled across
    non-slow sites — the adaptive hedging delay. [None] without a [slow]
    config or before any samples. *)

val transitions : t -> int
(** Number of binary suspicion-state changes so far (raises plus clears) —
    the detector's churn, surfaced in {!Atomrep_replica.Runtime.metrics}. *)

val slow_transitions : t -> int
(** Number of slow-suspicion changes so far (0 without a [slow] config). *)
