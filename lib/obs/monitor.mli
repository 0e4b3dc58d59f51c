(** No-divergence monitor over the trace bus.

    Every driver that renders a commit/abort verdict for a transaction —
    the original coordinator, a recovered coordinator re-driving its
    decision log, a cooperative participant, or a takeover lease holder —
    emits a {!Trace.Txn_decide} event at the verdict, {e before} the
    idempotent finalize guard. The monitor folds those events per
    transaction and flags any transaction for which two drivers ever
    decided differently: the one thing the takeover protocol (sticky
    votes + intersecting thresholds + lease fencing) must make
    impossible, no matter how many contenders raced.

    Re-deciding the {e same} outcome is expected and legal (redrive and
    adoption are idempotent); only mixed verdicts are violations. *)

type verdict = {
  d_txn : string;
  d_commits : int;  (** commit verdicts rendered *)
  d_aborts : int;  (** abort verdicts rendered *)
  d_sites : int list;  (** deciding sites, first-decision order *)
}

val decisions : ?from_id:int -> Trace.t -> verdict list
(** Per-transaction decision tallies, in first-decision order — an
    independent count beside {!spec}. [from_id] restricts the scan to
    events with id at or above it — use it to scope the tally to one run
    when several runs share a bus. *)

val observes : string list
(** The kind labels {!spec} observes: [["txn_decide"]]. *)

val spec : unit -> Spec_monitor.t
(** The declarative form: a {!Spec_monitor.keyed} machine (one instance
    per transaction over [Txn_decide] events) that violates at the first
    opposite verdict. The monitor catalogue
    ({!Atomrep_chaos.Monitors}) registers it as [no_divergence]; run it
    alone with [Spec_monitor.run (spec ())]. Violations are named
    ["no_divergence(<txn>)"]. *)
