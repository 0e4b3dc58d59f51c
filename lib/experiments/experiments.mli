(** The experiment harness: one entry per figure / worked example of the
    paper (see DESIGN.md's experiment index). Each experiment prints the
    reproduced rows through {!Atomrep_stats.Table} and returns nothing;
    failures to reproduce the paper's claims are printed as such (and the
    test suite asserts the claims independently). *)

val e1_concurrency : unit -> unit
(** Figure 1-1: classify random behavioral histories by the three local
    atomicity properties per data type; report acceptance counts and the
    containment/incomparability witnesses. *)

val e2_availability : unit -> unit
(** Figure 1-2: valid threshold-assignment counts per property and
    replication degree; checks Static ⊆ Hybrid strictly and Dynamic
    incomparable to both. *)

val e3_prom : unit -> unit
(** §4's PROM example: the paper's hybrid (1,n,1) vs static (1,n,n)
    assignments and their per-operation availability as the site-up
    probability varies. *)

val e4_static_vs_hybrid : unit -> unit
(** Theorems 4/5/6 on PROM: minimal static relation, the hybrid relation's
    verification, and the Theorem 5 witness run through the checkers. *)

val e5_flagset : unit -> unit
(** §4's FlagSet example: the base relation fails, both extensions verify,
    each is minimal — minimal hybrid relations are not unique. *)

val e6_queue : unit -> unit
(** Theorem 11 on Queue: static vs dynamic relations and their cheapest
    quorum assignments. *)

val e7_doublebuffer : unit -> unit
(** Theorem 12 on DoubleBuffer: the dynamic relation is not a hybrid
    dependency relation; counterexample printed. *)

val e8_simulation : unit -> unit
(** §3.2 end-to-end: replicated-queue availability under crash faults per
    scheme, and the §2 partition comparison against available copies. *)

val e9_concurrency_sim : unit -> unit
(** Throughput/abort comparison of the three schemes under contention, on
    workloads chosen so each mechanism's strength shows. *)

val e10_read_write_ablation : unit -> unit
(** Type-specific constraints vs Gifford read/write classification:
    assignment counts and best achievable workload availability. *)

val e11_weighted_voting : unit -> unit
(** Extension (Gifford [11]): weighted voting on heterogeneously reliable
    sites vs the best uniform threshold assignment — votes migrate to the
    reliable site. *)

val e12_partition_availability : unit -> unit
(** Extension (§3's fault model): exact operation availability under
    crashes plus partitions for the paper's PROM assignments — hybrid's
    one-site Write quorum survives partitions that kill static's
    all-sites Write quorum. *)

val e13_anti_entropy : unit -> unit
(** Extension: status-gossip ablation under crash faults — safety is
    unchanged (the quorums' job); blocking and conflict aborts shrink as
    stale tentative entries resolve sooner. *)

val all : (string * string * (unit -> unit)) list
(** (id, description, run) for every experiment, in order. *)

val run_by_id : string -> bool
(** Run one experiment by id (e.g. "e3"); false if the id is unknown. *)
