(** Per-site latency books for gray-failure detection.

    One book holds, per site, an EWMA of observed RPC latencies plus a ring
    of the most recent [window] samples and a sorted mirror of the same
    samples, so a windowed percentile is an index read rather than a sort.
    The latency-aware failure detector ({!Atomrep_sim.Detector}) feeds
    these from [note_rpc_result] samples and scores each site's EWMA and
    p99 against the cluster median to raise graded slow-suspicion — a
    fail-slow site inflates its own book while the median stays anchored
    by the healthy majority.

    Every percentile uses the nearest-rank rule of
    {!Atomrep_stats.Summary.nearest_rank}. Pure bookkeeping: no RNG, no
    clock. Observing through a book never perturbs simulation determinism.
    After {!create}, {!observe} allocates nothing and each query allocates
    only its boxed [float] result: no window is copied or sorted. *)

type t

val create : n_sites:int -> ?alpha:float -> ?window:int -> unit -> t
(** [alpha] is the EWMA smoothing factor in (0,1] (default 0.2: a sample
    moves the average 20% of the way); [window] the per-site ring capacity
    (default 64). *)

val n_sites : t -> int

val observe : t -> site:int -> float -> unit
(** Record one latency sample for the site. Out-of-range sites are
    ignored (the detector may observe probe traffic to retired members).
    O(window): a full ring's evicted sample leaves the sorted mirror and
    the new one enters it, each by binary search and a blit. *)

val samples : t -> site:int -> int
(** Lifetime sample count for the site (not capped by the window). *)

val ewma : t -> site:int -> float
(** Smoothed latency; [0.] before the first sample. *)

val percentile : t -> site:int -> q:float -> float
(** Nearest-rank percentile over the site's current window; [0.] when
    empty. O(1). *)

val pooled_percentile : ?exclude:(int -> bool) -> t -> q:float -> float
(** Percentile over all sites' windows pooled together, skipping sites the
    [exclude] predicate claims — the adaptive hedging delay reads this with
    slow-suspected sites excluded so a gray site cannot drag the hedge
    trigger up with it. [0.] when no included site has samples.

    A k-way walk over the included sites' sorted mirrors, from whichever
    end is nearer the rank: about [min(r, N-r)] steps of O(n_sites) each,
    for rank [r] among [N] pooled samples. So O(n_sites² · window) at
    worst (the median); the hedge trigger's q = 0.95 over 5 full windows
    of 64 takes 17 steps. [exclude] is called once per site. *)

val median_ewma : t -> float
(** Median across sites (with samples) of the per-site EWMA. O(n_sites²)
    comparisons at worst, over at most [n_sites] values. *)

val median_percentile : t -> q:float -> float
(** Median across sites (with samples) of the per-site [q]-percentile.
    Same cost as {!median_ewma}. *)
