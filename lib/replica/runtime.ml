open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_quorum
open Atomrep_clock
open Atomrep_sim
open Atomrep_stats
open Atomrep_txn
module Trace = Atomrep_obs.Trace
module Metrics = Atomrep_obs.Metrics
module Profile = Atomrep_obs.Profile
module Timeseries = Atomrep_obs.Timeseries
module Waits_for = Atomrep_cc.Waits_for

type object_config = {
  obj_name : string;
  obj_spec : Serial_spec.t;
  obj_relation : Relation.t;
  obj_assignment : Assignment.t;
  obj_members : int list option;
}

type op_request = { target : string; invocation : Event.Invocation.t }

type reconfig = {
  probe_every : float;
  probe_timeout : float;
  suspect_after : int;
  check_every : float;
  cooldown : float;
  assume_p : float;
  mix : (string * float) list;
  monitor : int;
  allow_barrier : bool;
  unsafe_no_barrier : bool;
  plan_override :
    (live:int list -> n_sites:int -> (int list * Assignment.t) option) option;
}

let default_reconfig =
  {
    probe_every = 40.0;
    probe_timeout = 25.0;
    suspect_after = 3;
    check_every = 60.0;
    cooldown = 150.0;
    assume_p = 0.9;
    mix = [];
    monitor = 0;
    allow_barrier = true;
    unsafe_no_barrier = false;
    plan_override = None;
  }

type deadlock_mode = No_deadlock | Detect | Wound_wait

let deadlock_mode_name = function
  | No_deadlock -> "none"
  | Detect -> "detect"
  | Wound_wait -> "wound-wait"

let deadlock_mode_of_string = function
  | "none" -> Some No_deadlock
  | "detect" -> Some Detect
  | "wound-wait" -> Some Wound_wait
  | _ -> None

type shed_policy = Reject_newest | Shed_reads_first

let shed_policy_name = function
  | Reject_newest -> "reject-newest"
  | Shed_reads_first -> "shed-reads-first"

let shed_policy_of_string = function
  | "reject-newest" -> Some Reject_newest
  | "shed-reads-first" -> Some Shed_reads_first
  | _ -> None

type breaker_cfg = {
  br_window : int;
  br_threshold : float;
  br_cooldown : float;
  br_probes : int;
}

let default_breaker =
  { br_window = 8; br_threshold = 0.5; br_cooldown = 400.0; br_probes = 2 }

type admission = {
  max_in_flight : int;
  queue_limit : int;
  deadline : float;
  adm_shed_policy : shed_policy;
  adm_breaker : breaker_cfg option;
}

let default_admission =
  {
    max_in_flight = 8;
    queue_limit = 16;
    deadline = Float.infinity;
    adm_shed_policy = Reject_newest;
    adm_breaker = None;
  }

type load = {
  arrivals : float array;
  home_of : int -> int;
  session_of : int -> int;
  class_of : int -> [ `Read | `Write ];
}

(* Gray-failure mitigation policy (DESIGN §3j). [hedge] turns on
   early-quorum gathers plus hedged re-issues: each quorum round fires its
   gather as soon as a satisfying vote set answered, and once the round
   lags an adaptive percentile delay re-issues the call — first to
   primaries still lacking a reply, then to members routed out of the
   round. [demote] steers rounds away from slow-suspected sites entirely
   (never below the round's quorum floor) and, once a suspicion has
   persisted [demote_grace], lets the reconfiguration coordinator treat
   the site as unusable and reassign quorums off it. *)
type gray = {
  hedge : bool;
  demote : bool;
  hedge_percentile : float;
      (* hedge delay = this percentile of recent non-slow RPC latencies *)
  hedge_delay_floor : float; (* never hedge sooner than this *)
  hedge_max : int; (* spare re-issues per round *)
  slow : Detector.slow_config; (* latency-scoring knobs *)
  demote_grace : float;
      (* slow-suspicion age before reconfiguration treats the site as
         down for planning purposes *)
}

type config = {
  seed : int;
  n_sites : int;
  latency_mean : float;
  drop_probability : float;
  scheme : Replicated.scheme;
  objects : object_config list;
  n_txns : int;
  arrival_mean : float;
  script : Rng.t -> int -> op_request list;
  max_retries : int;
  retry_delay : float;
  retry_delay_cap : float;
  rpc_timeout : float;
  commit_quorum_retries : int;
  install_faults : Network.t -> unit;
  horizon : float;
  anti_entropy_every : float option;
  reconfig : reconfig option;
  trace : Trace.t option;
  ungated_rejoin : bool;
  durability : Repository.durability;
  termination : Termination.mode;
  deadlock : deadlock_mode;
  reaper_every : float;
  takeover : bool;
      (* Coordinator takeover (requires [Cooperative] termination): a
         participant that finds a dead coordinator's in-doubt transaction
         wins an epoch-style takeover lease before adopting the drive,
         and every vote it places is term-stamped so stale drivers are
         fenced (see DESIGN §3f). *)
  admission : admission option;
      (* Admission control and graceful shedding (DESIGN §3i): a bounded
         in-flight window, a FIFO admission queue with deadline-aware
         dequeue, queue-overflow shed policies, and an optional per-site
         circuit breaker over RPC outcomes. [None] (the default) is the
         legacy unbounded path — every arrival starts immediately. *)
  retry_budget : int;
      (* Total retries (conflict backoffs + commit-quorum re-probes +
         commit-drive re-drives) one transaction may spend before it gives
         up — the metastable-collapse cap: capped jittered backoff bounds
         the rate, this bounds the amplification. [max_int] (the default)
         is unbounded, the historical behavior bit-for-bit. *)
  load : load option;
      (* Open-loop arrival schedule ({!Atomrep_workload.Openloop}): when
         present, transaction [i] arrives at [arrivals.(i)] (at most
         [n_txns] of them) at home site [home_of i], replacing the
         closed-loop exponential inter-arrival draws and the uniform home
         draw; [session_of]/[class_of] feed the per-session monotonicity
         monitor and the shed-by-class policy. *)
  timely_bound : float;
      (* A commit only counts toward [timely_commits] when the
         transaction's arrival-to-commit sojourn is within this bound —
         the goodput load sweeps compare (a late commit is wasted work to
         an open-loop client). [infinity] (the default) counts every
         commit. Accounting only; never changes scheduling. *)
  gray : gray option;
      (* Gray-failure mitigation (hedging, early-quorum gathers, slow-site
         demotion). [None] (the default) is the historical runtime,
         bit-for-bit: no latency scoring, every round targets all members
         and gathers all-or-timeout. *)
  fail_slow : (int * float * Network.slow_mode) list;
      (* Scripted fail-slow injections: (site, onset sim-time, mode).
         Each entry arms {!Network.set_fail_slow} at its onset and leaves
         the site degraded for the rest of the run — the persistent
         gray-failure fault, distinct from transient latency spikes. *)
  profile : Profile.t;
      (* Installed as the ambient profile for the run's extent, so the
         engine dispatch loop, network sends, trace publishes, quorum
         gathers and WAL flushes record phase timings against it.
         [Profile.null] (the default) costs one branch per site. *)
  timeseries : Timeseries.t;
      (* When enabled, a periodic engine event samples committed/aborted/
         blocked deltas, queue depth and WAL flushes into sim-time windows.
         The sampler draws no RNG and re-arms only while other work is
         pending, so it never changes what the workload does or when the
         run ends. *)
}

let default_queue_assignment ~n_sites =
  let majority = (n_sites / 2) + 1 in
  Assignment.make ~n_sites
    [
      ("Enq", { Assignment.initial = majority; final = majority });
      ("Deq", { Assignment.initial = majority; final = majority });
    ]

let default_gray =
  {
    hedge = true;
    demote = true;
    hedge_percentile = 0.95;
    hedge_delay_floor = 2.0;
    hedge_max = 2;
    slow = Detector.default_slow_config;
    demote_grace = 500.0;
  }

let default_config =
  {
    seed = 42;
    n_sites = 3;
    latency_mean = 2.0;
    drop_probability = 0.0;
    scheme = Replicated.Hybrid;
    objects =
      [
        {
          obj_name = "queue";
          obj_spec = Queue_type.spec;
          obj_relation = Static_dep.minimal Queue_type.spec ~max_len:4;
          obj_assignment = default_queue_assignment ~n_sites:3;
          obj_members = None;
        };
      ];
    n_txns = 20;
    arrival_mean = 30.0;
    script =
      (fun rng _ ->
        let op =
          if Rng.bool rng then { target = "queue"; invocation = Queue_type.enq_inv "x" }
          else { target = "queue"; invocation = Queue_type.deq_inv }
        in
        [ op ]);
    max_retries = 8;
    retry_delay = 25.0;
    retry_delay_cap = 400.0;
    rpc_timeout = 50.0;
    commit_quorum_retries = 2;
    install_faults = (fun _ -> ());
    horizon = 1_000_000.0;
    anti_entropy_every = None;
    reconfig = None;
    trace = None;
    ungated_rejoin = false;
    durability = Repository.Volatile;
    termination = Termination.Disabled;
    deadlock = No_deadlock;
    reaper_every = 250.0;
    takeover = false;
    admission = None;
    retry_budget = max_int;
    load = None;
    timely_bound = infinity;
    gray = None;
    fail_slow = [];
    profile = Profile.null;
    timeseries = Timeseries.null;
  }

type metrics = {
  committed : int;
  aborted : int;
  unavailable_aborts : int;
  rejected_aborts : int;
  conflict_aborts : int;
  blocked_waits : int;
  ops_done : int;
  txn_latency : Summary.t;
  duration : float;
  msgs_sent : int;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_dead_dest : int;
  rpc_timeouts : int;
  reconfigs : int;
  reconfigs_refused : int;
  reconfigs_failed : int;
  reconfig_latency : Summary.t;
  suspicion_transitions : int;
  final_epoch : int;
  recoveries : int;
  recoveries_corrupt : int;
  recovery_replay : Summary.t;
  recovery_cost : Summary.t;
  wal_flushes : int;
  wal_flushed_records : int;
  wal_lost_flushes : int;
  wal_full_rejections : int;
  wal_torn_writes : int;
  wal_rotted : int;
  wal_checkpoints : int;
  storage_faults : int;
  coop_commits : int;
  coop_aborts : int;
  presumed_aborts : int;
  deadlock_aborts : int;
  redrives : int;
  orphans_reaped : int;
  stranded_entries : int;
  decision_log_writes : int;
  blocked_latency : Summary.t;
  takeover_leases : int;
  takeover_adoptions : int;
  takeover_fenced : int;
  takeover_contended : int;
  rebroadcasts_suppressed : int;
  stranded_live : int;
  shed : int;
  timely_commits : int;
  retries_spent : int;
  retries_budget_exhausted : int;
  sojourn : Summary.t;
  breaker_trips : int;
  hedges : int;
  hedge_wins : int;
  hedge_late : int;
  demoted_rounds : int;
  slow_suspicions : int;
}

type outcome = {
  metrics : metrics;
  histories : (string * Behavioral.t) list;
  registry : Metrics.t;
}

(* Registry handles for the hot counters: looked up once at run start so
   the per-transaction path never hashes a label set. *)
type counters = {
  c_committed : Metrics.counter;
  c_aborted : Metrics.counter;
  c_unavailable : Metrics.counter;
  c_rejected : Metrics.counter;
  c_conflict : Metrics.counter;
  c_blocked : Metrics.counter;
  c_ops : Metrics.counter;
  c_latency : Metrics.histogram;
  c_deadlock : Metrics.counter;
  c_presumed : Metrics.counter;
  c_coop_commit : Metrics.counter;
  c_coop_abort : Metrics.counter;
  c_redrive : Metrics.counter;
  c_orphans : Metrics.counter;
  c_blocked_latency : Metrics.histogram;
  c_takeover_lease : Metrics.counter;
  c_takeover_adopt : Metrics.counter;
  c_takeover_fenced : Metrics.counter;
  c_takeover_contended : Metrics.counter;
  c_rebroadcast_suppressed : Metrics.counter;
  g_stranded_live : Metrics.gauge;
  c_shed : Metrics.counter;
  c_timely : Metrics.counter;
  c_retries_spent : Metrics.counter;
  c_retry_exhausted : Metrics.counter;
  c_sojourn : Metrics.histogram;
  c_breaker_trips : Metrics.counter;
}

(* Live admission state: the bounded in-flight window and the FIFO queue
   (arrival order, head oldest — small by construction, [queue_limit]
   entries at most, so list append is fine). *)
type pending_txn = {
  p_index : int;
  p_arrival : float;
  p_class : [ `Read | `Write ];
}

type admission_state = {
  acfg : admission;
  mutable adm_in_flight : int;
  mutable adm_queue : pending_txn list;
}

type run_state = {
  engine : Engine.t;
  net : Network.t;
  clocks : Lamport.t array;
  objects : (string * Replicated.t) list;
  txns : (Action.t, Txn.t) Hashtbl.t;
  counters : counters;
  registry : Metrics.t;
  cfg : config;
  term : Termination.t option; (* decision logs, modes <> Disabled *)
  waits : Waits_for.t;
  (* Actions with a cooperative-termination round in flight — dedups
     concurrent participants piling onto the same stuck blocker. *)
  in_termination : (Action.t, unit) Hashtbl.t;
  (* (blocker, polling site) pairs whose status was already re-broadcast
     from try_resolve: later polls from the same site suppress the
     duplicate push and count it instead (the reaper still repairs any
     repository the one broadcast missed). *)
  rebroadcasted : (Action.t, int list) Hashtbl.t;
  (* Highest takeover term seen per action — the next bid must exceed it. *)
  takeover_terms : (Action.t, int) Hashtbl.t;
  (* Transactions currently counted in the live stranded gauge; the guard
     that makes adoption and orphan GC unable to double-decrement. *)
  counted_stranded : (Action.t, unit) Hashtbl.t;
  mutable n_stranded_live : int;
  admission_st : admission_state option;
}

let find_object st name =
  match List.assoc_opt name st.objects with
  | Some o -> o
  | None -> invalid_arg ("Runtime: unknown object " ^ name)

(* Capped exponential backoff with jitter: attempt 0 waits around the base
   delay, each further attempt doubles it up to the cap, and the uniform
   jitter in [0.5, 1.5) keeps two mutually-refused operations from
   retrying in lock-step. The cap clamps the jittered delay, not just the
   exponential part, so no delay ever exceeds [retry_delay_cap]. *)
let backoff_delay cfg rng ~attempt =
  let exp = cfg.retry_delay *. (2.0 ** float_of_int attempt) in
  Float.min (exp *. (0.5 +. Rng.float rng 1.0)) cfg.retry_delay_cap

let note st ~site kind =
  let trc = Network.trace st.net in
  if Trace.enabled trc then ignore (Trace.emit trc ~site kind)

(* A driver rendered a commit/abort verdict for [action] at [site].
   Emitted at the verdict — before the idempotent finalize guard — so
   every contending driver's decision reaches the trace bus and the
   no-divergence monitor can check that no two ever disagreed. *)
let decide_note st ~site action ~committed =
  note st ~site (Trace.Txn_decide { txn = Action.to_string action; site; committed })

(* Live stranded-transaction gauge. One increment the first time a
   transaction is observed stranded (driver died / coordinator found
   dead), one decrement when an external driver finalizes it — the
   [counted_stranded] guard is what keeps adoption and a later orphan-GC
   sweep of the same transaction from double-decrementing. *)
let set_stranded_gauge st =
  Metrics.set st.counters.g_stranded_live (float_of_int st.n_stranded_live)

let mark_stranded st btxn =
  match btxn.Txn.status with
  | Txn.Committed _ | Txn.Aborted _ -> ()
  | Txn.Running | Txn.Committing ->
    let action = btxn.Txn.action in
    if not (Hashtbl.mem st.counted_stranded action) then begin
      Hashtbl.replace st.counted_stranded action ();
      st.n_stranded_live <- st.n_stranded_live + 1;
      set_stranded_gauge st
    end

let unmark_stranded st action =
  if Hashtbl.mem st.counted_stranded action then begin
    Hashtbl.remove st.counted_stranded action;
    st.n_stranded_live <- st.n_stranded_live - 1;
    set_stranded_gauge st
  end

(* Re-push a terminal transaction's status records to every repository of
   every object it touched (from [from]): lingering tentative entries at
   any reachable repository resolve, not just the object the caller was
   blocked on. *)
let rebroadcast_status st btxn ~from =
  let action = btxn.Txn.action in
  List.iter
    (fun name ->
      let obj = find_object st name in
      match btxn.Txn.status with
      | Txn.Committed ts ->
        Replicated.broadcast_status obj
          (Log.Commit_record (action, ts))
          ~reachable_from:from
      | Txn.Aborted _ ->
        Replicated.broadcast_status obj (Log.Abort_record action)
          ~reachable_from:from
      | Txn.Running | Txn.Committing -> ())
    btxn.Txn.touched

(* Finalize a transaction from outside its (dead or stuck) driver: the
   single Running/Committing -> terminal transition owns the counters, the
   observer entries, and the status broadcast, so a stranded driver that
   never wakes and a cooperative participant can never both claim it. *)
let ext_finalize st btxn ~from outcome =
  let action = btxn.Txn.action in
  (match btxn.Txn.status with
   | Txn.Committed _ | Txn.Aborted _ -> ()
   | Txn.Running | Txn.Committing ->
     Waits_for.clear st.waits action;
     unmark_stranded st action;
     (match outcome with
      | `Commit cts ->
        btxn.Txn.status <- Txn.Committed cts;
        Metrics.incr st.counters.c_committed;
        note st ~site:from (Trace.Txn_commit { txn = Action.to_string action });
        List.iter
          (fun name ->
            Replicated.observe (find_object st name) (Behavioral.Commit action))
          btxn.Txn.touched
      | `Abort (kind, why) ->
        btxn.Txn.status <- Txn.Aborted why;
        Metrics.incr st.counters.c_aborted;
        (match kind with
         | `Presumed -> Metrics.incr st.counters.c_presumed
         | `Coop -> Metrics.incr st.counters.c_coop_abort);
        note st ~site:from
          (Trace.Txn_abort { txn = Action.to_string action; reason = why });
        List.iter
          (fun name ->
            Replicated.observe (find_object st name) (Behavioral.Abort action))
          btxn.Txn.touched));
  rebroadcast_status st btxn ~from

let count_yes_commit cts evs =
  List.length
    (List.filter
       (function
         | Repository.E_committed _ -> true
         | Repository.E_precommit ts -> Lamport.Timestamp.compare ts cts = 0
         | Repository.E_aborted | Repository.E_preabort | Repository.E_none
         | Repository.E_fenced _ ->
           false)
       evs)

let count_yes_abort evs =
  List.length
    (List.filter
       (function
         | Repository.E_aborted | Repository.E_preabort -> true
         | Repository.E_committed _ | Repository.E_precommit _
         | Repository.E_none | Repository.E_fenced _ ->
           false)
       evs)

let fenced_by evs =
  List.find_map
    (function Repository.E_fenced granted -> Some granted | _ -> None)
    evs

let certified_abort evs =
  List.exists (function Repository.E_aborted -> true | _ -> false) evs

let certified_commit evs =
  List.find_map
    (function Repository.E_committed ts -> Some ts | _ -> None)
    evs

(* Drive Precommit vote rounds for [btxn] at timestamp [cts] across every
   object it touched, from site [from]. Commit certifies only when EVERY
   object yields a full vote quorum (>= vote_need) — counting evidence on
   one object alone could commit object A while object B certifies abort.
   [k] gets `Committed, `Aborted (certified abort evidence surfaced),
   `Fenced (some repository holds a newer takeover lease than [term] —
   the current lease holder owns the drive now; stop), or `Inconclusive
   (some quorum unreachable; the decision stays open). [term] stamps the
   votes with the driver's takeover term; omitted (legacy paths with
   takeover off) the votes are unfenced. *)
let drive_commit_votes ?term st btxn cts ~from ~k =
  let action = btxn.Txn.action in
  let rec round = function
    | [] ->
      decide_note st ~site:from action ~committed:true;
      ext_finalize st btxn ~from (`Commit cts);
      k `Committed
    | name :: more ->
      let obj = find_object st name in
      Replicated.place_vote ?term obj (Log.Precommit (action, cts)) ~from
        ~k:(fun evs ->
          match fenced_by evs with
          | Some granted ->
            Metrics.incr st.counters.c_takeover_fenced;
            note st ~site:from
              (Trace.Takeover_fence
                 {
                   txn = Action.to_string action;
                   site = from;
                   term = Option.value term ~default:0;
                   granted;
                 });
            k `Fenced
          | None ->
            if certified_abort evs then begin
              decide_note st ~site:from action ~committed:false;
              ext_finalize st btxn ~from (`Abort (`Coop, "termination abort"));
              k `Aborted
            end
            else if count_yes_commit cts evs >= Replicated.vote_need obj then
              round more
            else k `Inconclusive)
  in
  round btxn.Txn.touched

(* Participant-driven cooperative termination for a stuck blocker.
   Poll the blocked object's repositories; adopt any certified decision;
   otherwise (Cooperative mode) either complete a commit the evidence
   shows was underway, or run a Preabort round: n - f + 1 sticky abort
   votes on ONE object guarantee no commit quorum of f can ever assemble
   there (the vote sets intersect), so installing the abort record is
   safe — presumed abort with a quorum proof.

   With [takeover] on, the active branch first wins a takeover lease at
   the blocked object's repositories (a monotone term granted by
   [lease_need] members — enough to intersect every commit AND abort
   vote set), stamps its votes with the term so stale drivers fence, and
   force-writes an adopted commit to its own durable decision log before
   driving, so a crash of the taker leaves the adoption re-drivable. *)
let cooperative_terminate st btxn target ~from =
  let action = btxn.Txn.action in
  if not (Hashtbl.mem st.in_termination action) then begin
    Hashtbl.replace st.in_termination action ();
    mark_stranded st btxn;
    let obj = find_object st target in
    let finish outcome =
      Hashtbl.remove st.in_termination action;
      note st ~site:from
        (Trace.Coop_term { txn = Action.to_string action; outcome })
    in
    (* Under takeover a terminator is a real contender that can die
       between its rounds: re-check liveness before starting the next
       phase, so a dead taker's round ends (releasing the in-flight
       dedup for the next contender) instead of continuing as a ghost.
       Replies already in flight still land — messages sent are sent.
       Without takeover, keep the PR-5 behavior exactly. *)
    let alive k =
      if st.cfg.takeover && not (Network.site_up st.net from) then
        finish "taker-died"
      else k ()
    in
    let adopt_certified evs k =
      match certified_commit evs with
      | Some cts ->
        decide_note st ~site:from action ~committed:true;
        ext_finalize st btxn ~from (`Commit cts);
        finish "adopted-commit"
      | None ->
        if certified_abort evs then begin
          decide_note st ~site:from action ~committed:false;
          ext_finalize st btxn ~from (`Abort (`Coop, "termination abort"));
          finish "adopted-abort"
        end
        else k ()
    in
    let preabort_round ?term () =
      Replicated.place_vote ?term obj (Log.Preabort action) ~from
        ~k:(fun evs ->
          match fenced_by evs with
          | Some granted ->
            Metrics.incr st.counters.c_takeover_fenced;
            note st ~site:from
              (Trace.Takeover_fence
                 {
                   txn = Action.to_string action;
                   site = from;
                   term = Option.value term ~default:0;
                   granted;
                 });
            finish "fenced"
          | None ->
            adopt_certified evs (fun () ->
                if count_yes_abort evs >= Replicated.veto_need obj then begin
                  decide_note st ~site:from action ~committed:false;
                  ext_finalize st btxn ~from (`Abort (`Coop, "presumed abort"));
                  finish "presumed-abort"
                end
                else finish "inconclusive"))
    in
    let drive_adopted ?term cts =
      drive_commit_votes ?term st btxn cts ~from ~k:(function
        | `Committed ->
          Metrics.incr st.counters.c_coop_commit;
          (match term with
           | Some _ ->
             Metrics.incr st.counters.c_takeover_adopt;
             (* The adoption is decided and certified: make the outcome
                durable at the taker too, closing its intent. *)
             (match st.term with
              | Some t ->
                Termination.log_outcome t ~site:from ~action ~committed:true
              | None -> ());
             finish "takeover-commit"
           | None -> finish "coop-commit")
        | `Aborted ->
          (match (term, st.term) with
           | Some _, Some t ->
             Termination.log_outcome t ~site:from ~action ~committed:false
           | _ -> ());
          finish "adopted-abort"
        | `Fenced -> finish "fenced"
        | `Inconclusive -> finish "inconclusive")
    in
    Replicated.poll_status obj action ~from ~k:(fun evs ->
        adopt_certified evs (fun () ->
            match st.cfg.termination with
            | Termination.Disabled | Termination.Presumed_abort_only ->
              (* Passive: without certified evidence the participant keeps
                 waiting for the coordinator (textbook presumed-abort
                 blocking). *)
              finish "inconclusive"
            | Termination.Cooperative ->
              let precommit =
                List.find_map
                  (function Repository.E_precommit ts -> Some ts | _ -> None)
                  evs
              in
              if not st.cfg.takeover then (
                match precommit with
                | Some cts ->
                  (* The coordinator reached its commit point: act as a
                     substitute coordinator and complete the commit. *)
                  drive_adopted cts
                | None -> preabort_round ())
              else
                alive (fun () ->
                    (* Bid for the takeover lease before driving either
                       side. The bid announces itself to the fault layer
                       (the takeover killer ambushes here). *)
                    Network.note_takeover st.net ~site:from;
                    let propose =
                      1
                      + Option.value ~default:0
                          (Hashtbl.find_opt st.takeover_terms action)
                    in
                    Replicated.takeover_acquire obj action ~term:propose
                      ~holder:from ~from ~k:(fun ~granted ~highest ->
                        Hashtbl.replace st.takeover_terms action
                          (max highest propose);
                        alive (fun () ->
                            if granted < Replicated.lease_need obj then begin
                              Metrics.incr st.counters.c_takeover_contended;
                              finish "lease-refused"
                            end
                            else begin
                              Metrics.incr st.counters.c_takeover_lease;
                              note st ~site:from
                                (Trace.Takeover_acquire
                                   {
                                     txn = Action.to_string action;
                                     site = from;
                                     term = propose;
                                   });
                              match precommit with
                              | Some cts ->
                                (* Force-write the adopted decision to the
                                   taker's own durable decision log first:
                                   if the taker crashes mid-drive, its
                                   recovery re-drives the adoption like
                                   any in-doubt intent of its own. *)
                                let logged =
                                  match st.term with
                                  | Some t ->
                                    Termination.log_intent t ~site:from
                                      ~action ~touched:btxn.Txn.touched ~cts
                                  | None -> false
                                in
                                if logged then
                                  drive_adopted ~term:propose cts
                                else finish "adoption-log-full"
                              | None -> preabort_round ~term:propose ()
                            end)))))
  end

(* A blocked operation consults the blocking transaction's coordinator when
   reachable; a finished transaction's status records are re-broadcast so
   lingering tentative entries resolve on every reachable repository of
   every touched object. When the coordinator is unreachable, the
   termination protocol (if enabled) takes over instead of the historical
   silent give-up. *)
let try_resolve st ~home blocker target =
  match Hashtbl.find_opt st.txns blocker with
  | None -> ()
  | Some btxn ->
    let coord = btxn.Txn.home_site in
    if Network.reachable st.net home coord then begin
      match btxn.Txn.status with
      | Txn.Committed _ | Txn.Aborted _ ->
        (* Idempotence guard: one status re-broadcast per (blocker,
           polling site). A blocked operation's retry loop polls here on
           every backoff; without the guard each poll re-pushed the same
           records to every repository. Suppressed duplicates are counted;
           a repository the one broadcast missed (crashed, partitioned) is
           repaired by the orphan reaper, whose re-pushes stay
           unconditional. *)
        let sites =
          Option.value ~default:[] (Hashtbl.find_opt st.rebroadcasted blocker)
        in
        if List.mem home sites then
          Metrics.incr st.counters.c_rebroadcast_suppressed
        else begin
          Hashtbl.replace st.rebroadcasted blocker (home :: sites);
          rebroadcast_status st btxn ~from:coord
        end
      | Txn.Running | Txn.Committing -> ()
    end
    else (
      match st.cfg.termination with
      | Termination.Disabled -> ()
      | Termination.Presumed_abort_only | Termination.Cooperative ->
        cooperative_terminate st btxn target ~from:home)

(* The shed site for a transaction that never started: its home under an
   open-loop plan (where homes are preassigned), the system lane otherwise
   (the uniform home draw has not happened yet). *)
let shed_site st index =
  match st.cfg.load with
  | Some l -> l.home_of index mod st.cfg.n_sites
  | None -> -1

(* Shed a transaction that was never admitted (queue overflow, class
   eviction, or deadline expiry while queued): it touched nothing, so the
   Shed trace event plus the counters are the whole story — the
   shed-safety monitor sees no tentative entries to worry about. *)
let shed_pending st p ~reason =
  Metrics.incr st.counters.c_aborted;
  Metrics.incr st.counters.c_shed;
  Metrics.observe st.counters.c_sojourn (Engine.now st.engine -. p.p_arrival);
  note st ~site:(shed_site st p.p_index)
    (Trace.Shed { txn = Printf.sprintf "T%d" p.p_index; reason })

(* Evict the newest queued read (shed-by-class: reads are sacrificed
   before writes). Returns the victim and the queue without it. *)
let evict_newest_read queue =
  let rec go acc = function
    | [] -> None
    | p :: older when p.p_class = `Read -> Some (p, List.rev_append older acc)
    | p :: older -> go (p :: acc) older
  in
  go [] (List.rev queue)

let rec exec_txn st index ~arrival ~admitted ~release =
  let cfg = st.cfg in
  let rng = Engine.rng st.engine in
  let trc = Network.trace st.net in
      let home =
        match cfg.load with
        | Some l -> l.home_of index mod cfg.n_sites
        | None -> Rng.int rng cfg.n_sites
      in
      let session =
        match cfg.load with Some l -> l.session_of index | None -> -1
      in
      let action = Action.of_string (Printf.sprintf "T%d" index) in
      let txname = Action.to_string action in
      if not (Network.site_up st.net home) then begin
        (* The client's site is down: the transaction cannot start. *)
        Metrics.incr st.counters.c_aborted;
        Metrics.incr st.counters.c_unavailable;
        release ()
      end
      else begin
        let clock = st.clocks.(home) in
        let txn = Txn.create ~action ~begin_ts:(Lamport.tick clock) ~home_site:home in
        Hashtbl.replace st.txns action txn;
        let script = cfg.script rng index in
        let started = Engine.now st.engine in
        if Trace.enabled trc then
          ignore (Trace.emit trc ~site:home (Trace.Txn_begin { txn = txname }));
        let tspan = Trace.span_begin trc ~site:home "txn" in
        let commit_span = ref (-1) in
        (* Every continuation the driver schedules (RPC callback, backoff
           timer) re-enters through this guard: a transaction someone else
           finalized stops silently, and a driver whose home site has
           crashed dies with it — the transaction is stranded until the
           termination protocol (or nothing, under [Disabled]) picks it
           up. The guard draws nothing, so fault-free runs are
           bit-identical to the unguarded driver. *)
        let step f =
          match txn.Txn.status with
          | Txn.Committed _ | Txn.Aborted _ -> ()
          | Txn.Running | Txn.Committing ->
            if txn.Txn.stranded then ()
            else if not (Network.site_up st.net home) then begin
              txn.Txn.stranded <- true;
              mark_stranded st txn;
              (* The driver is dead; its admission slot frees so offered
                 load keeps flowing while termination picks the orphan up. *)
              release ()
            end
            else f ()
        in
        let close_spans outcome =
          Trace.span_end trc ~site:home ~span:!commit_span ~outcome;
          Trace.span_end trc ~site:home ~span:tspan ~outcome
        in
        let finish_abort kind why =
          match txn.Txn.status with
          | Txn.Committed _ | Txn.Aborted _ -> ()
          | Txn.Running | Txn.Committing ->
            Waits_for.clear st.waits action;
            decide_note st ~site:home action ~committed:false;
            unmark_stranded st action;
            txn.Txn.status <- Txn.Aborted why;
            Metrics.incr st.counters.c_aborted;
            (match kind with
             | `Unavailable -> Metrics.incr st.counters.c_unavailable
             | `Rejected -> Metrics.incr st.counters.c_rejected
             | `Conflict -> Metrics.incr st.counters.c_conflict
             | `Deadlock -> Metrics.incr st.counters.c_deadlock
             | `Shed ->
               (* A mid-flight shed is an ordinary clean abort plus the
                  Shed marker the shed-safety monitor keys on: the abort
                  broadcast below must resolve its tentative entries at
                  every reachable repository. *)
               Metrics.incr st.counters.c_shed;
               note st ~site:home (Trace.Shed { txn = txname; reason = why }));
            if Trace.enabled trc then
              ignore
                (Trace.emit trc ~site:home
                   (Trace.Txn_abort { txn = txname; reason = why }));
            close_spans "aborted";
            List.iter
              (fun name ->
                let obj = find_object st name in
                Replicated.observe obj (Behavioral.Abort action);
                Replicated.broadcast_status obj (Log.Abort_record action)
                  ~reachable_from:home)
              txn.Txn.touched;
            release ()
        in
        let note_session_commit cts =
          if session >= 0 then
            note st ~site:home
              (Trace.Session_commit
                 {
                   session;
                   txn = txname;
                   counter = cts.Lamport.Timestamp.counter;
                   site = cts.Lamport.Timestamp.site;
                 })
        in
        let finish_commit () =
          Waits_for.clear st.waits action;
          if Engine.now st.engine -. arrival <= cfg.timely_bound then
            Metrics.incr st.counters.c_timely;
          if Trace.enabled trc then
            ignore (Trace.emit trc ~site:home (Trace.Txn_commit { txn = txname }));
          close_spans "committed";
          release ()
        in
        (* Per-transaction retry budget: conflict backoffs, commit-quorum
           re-probes and commit-drive re-drives all spend from the same
           pot, so a partitioned run cannot amplify retries unboundedly.
           [max_int] never exhausts and keeps the legacy draw sequence. *)
        let budget = ref cfg.retry_budget in
        let spend_retry () =
          if !budget <= 0 then false
          else begin
            budget := !budget - 1;
            Metrics.incr st.counters.c_retries_spent;
            true
          end
        in
        let budget_exhausted () =
          Metrics.incr st.counters.c_retry_exhausted
        in
        let past_deadline () =
          match st.admission_st with
          | None -> false
          | Some a -> Engine.now st.engine -. admitted > a.acfg.deadline
        in
        (* Deadlock handling at the moment an operation reports a blocker.
           [Detect]: record the waits-for edge and look for a cycle; the
           youngest participant (largest begin timestamp) is sentenced —
           its edge is removed so the cycle is broken even before it
           aborts. [Wound_wait]: an older waiter wounds a younger Running
           blocker outright (no graph, no cycles possible). Victims other
           than the current transaction abort at their next attempt
           entry. *)
        let on_blocked blocker =
          match cfg.deadlock with
          | No_deadlock -> ()
          | Detect -> (
            Waits_for.wait st.waits ~waiter:action ~on:blocker;
            let alive a =
              match Hashtbl.find_opt st.txns a with
              | Some t -> (
                match t.Txn.status with
                | Txn.Running | Txn.Committing -> t.Txn.doomed = None
                | Txn.Committed _ | Txn.Aborted _ -> false)
              | None -> false
            in
            match Waits_for.cycle_from st.waits ~alive action with
            | None -> ()
            | Some cycle ->
              let begin_ts a =
                match Hashtbl.find_opt st.txns a with
                | Some t -> t.Txn.begin_ts
                | None -> Lamport.Timestamp.zero
              in
              let victim =
                List.fold_left
                  (fun v a ->
                    if Lamport.Timestamp.compare (begin_ts a) (begin_ts v) > 0
                    then a
                    else v)
                  (List.hd cycle) (List.tl cycle)
              in
              (match Hashtbl.find_opt st.txns victim with
               | None -> ()
               | Some vt ->
                 vt.Txn.doomed <- Some "deadlock victim";
                 Waits_for.clear st.waits victim;
                 if Trace.enabled trc then
                   ignore
                     (Trace.emit trc ~site:home
                        (Trace.Deadlock
                           {
                             victim = Action.to_string victim;
                             cycle = List.map Action.to_string cycle;
                           }))))
          | Wound_wait -> (
            match Hashtbl.find_opt st.txns blocker with
            | None -> ()
            | Some bt -> (
              match bt.Txn.status with
              | Txn.Running
                when bt.Txn.doomed = None
                     && Lamport.Timestamp.compare txn.Txn.begin_ts
                          bt.Txn.begin_ts
                        < 0 ->
                bt.Txn.doomed <- Some "wounded";
                if Trace.enabled trc then
                  ignore
                    (Trace.emit trc ~site:home
                       (Trace.Deadlock
                          {
                            victim = Action.to_string blocker;
                            cycle =
                              [
                                Action.to_string action;
                                Action.to_string blocker;
                              ];
                          }))
              | _ -> ()))
        in
        let rec do_ops remaining =
          match remaining with
          | [] -> do_commit ()
          | { target; invocation } :: rest ->
            let obj = find_object st target in
            if not (List.mem target txn.Txn.touched) then begin
              Txn.touch txn target;
              Replicated.observe obj (Behavioral.Begin action)
            end;
            (* Wall-clock the op's blocked period: set at the first refusal,
               closed when the attempt chain terminates (driver-owned, like
               the transaction latency histogram). *)
            attempt obj (ref None) remaining rest invocation cfg.max_retries
        and attempt obj blocked_at remaining rest invocation retries =
          let unblocked () =
            match !blocked_at with
            | None -> ()
            | Some t0 ->
              blocked_at := None;
              Metrics.observe st.counters.c_blocked_latency
                (Engine.now st.engine -. t0)
          in
          match txn.Txn.doomed with
          | Some why when cfg.deadlock <> No_deadlock ->
            unblocked ();
            finish_abort `Deadlock why
          | _ ->
            Replicated.execute obj ~txn ~clock ~span:tspan invocation
              ~k:(fun result ->
                step (fun () ->
                    match result with
                    | Replicated.Done _ ->
                      unblocked ();
                      Waits_for.clear st.waits action;
                      Metrics.incr st.counters.c_ops;
                      do_ops rest
                    | Replicated.Blocked_on blocker ->
                      Metrics.incr st.counters.c_blocked;
                      if !blocked_at = None then
                        blocked_at := Some (Engine.now st.engine);
                      on_blocked blocker;
                      (match txn.Txn.doomed with
                       | Some why when cfg.deadlock <> No_deadlock ->
                         (* Sentenced as the cycle's victim just now: abort
                            immediately instead of waiting out a backoff. *)
                         unblocked ();
                         finish_abort `Deadlock why
                       | _ ->
                         try_resolve st ~home blocker (Replicated.name obj);
                         if past_deadline () then begin
                           (* Deadline-aware shedding mid-transaction:
                              still pre-commit, so the clean abort path
                              applies — tentative entries resolve via the
                              abort broadcast. *)
                           unblocked ();
                           finish_abort `Shed "deadline exceeded"
                         end
                         else if retries > 0 then begin
                           if spend_retry () then begin
                             let delay =
                               backoff_delay cfg rng
                                 ~attempt:(cfg.max_retries - retries)
                             in
                             Engine.schedule st.engine ~delay (fun () ->
                                 step (fun () ->
                                     attempt obj blocked_at remaining rest
                                       invocation (retries - 1)))
                           end
                           else begin
                             budget_exhausted ();
                             unblocked ();
                             finish_abort `Conflict "retry budget exhausted"
                           end
                         end
                         else begin
                           unblocked ();
                           finish_abort `Conflict "conflict retries exhausted"
                         end)
                    | Replicated.Unavailable why ->
                      unblocked ();
                      finish_abort `Unavailable why
                    | Replicated.Rejected why ->
                      unblocked ();
                      finish_abort `Rejected why))
        and do_commit () =
          txn.Txn.status <- Txn.Committing;
          (* Tell interested fault schedules (the coordinator killer) that
             this site just entered its commit window. Costs nothing — not
             even a draw — when nobody listens. *)
          Network.note_commit_window st.net ~site:home;
          commit_span := Trace.span_begin trc ~site:home ~parent:tspan "commit";
          let legacy_finalize () =
            let cts = Lamport.tick clock in
            decide_note st ~site:home action ~committed:true;
            txn.Txn.status <- Txn.Committed cts;
            Metrics.incr st.counters.c_committed;
            Metrics.observe st.counters.c_latency (Engine.now st.engine -. started);
            note_session_commit cts;
            finish_commit ();
            List.iter
              (fun name ->
                let obj = find_object st name in
                Replicated.observe obj (Behavioral.Commit action);
                Replicated.broadcast_status obj
                  (Log.Commit_record (action, cts))
                  ~reachable_from:home)
              txn.Txn.touched
          in
          (* Phase 2, termination modes: make the decision durable (the
             commit point), then drive sticky Precommit votes to a full
             quorum per object. A crash after the commit point leaves the
             intent in the decision log for the recovered coordinator to
             re-drive; a crash before it leaves only presumable-abort
             state. *)
          let decide () =
            match st.term with
            | None -> legacy_finalize ()
            | Some term ->
              let cts = Lamport.tick clock in
              if
                not
                  (Termination.log_intent term ~site:home ~action
                     ~touched:txn.Txn.touched ~cts)
              then finish_abort `Unavailable "decision log: disk full"
              else begin
                if Trace.enabled trc then
                  ignore
                    (Trace.emit trc ~site:home
                       (Trace.Commit_point { txn = txname }));
                (* Session_commit is emitted here, at timestamp assignment,
                   not when the vote drive reports back: a partition can
                   delay one drive past a later-stamped sibling's verdict,
                   and the monitor judges the clock in trace order. *)
                note_session_commit cts;
                (* With takeover on, the coordinator identifies itself at
                   the implicit term 0 so a takeover lease holder fences
                   it; takeover off leaves the votes unfenced (PR-5). *)
                let my_term = if cfg.takeover then Some 0 else None in
                let rec drive tries_left =
                  drive_commit_votes ?term:my_term st txn cts ~from:home
                    ~k:(fun verdict ->
                      if not (Network.site_up st.net home) then begin
                        txn.Txn.stranded <- true;
                        mark_stranded st txn;
                        release ()
                      end
                      else
                        match verdict with
                        | `Committed ->
                          Metrics.observe st.counters.c_latency
                            (Engine.now st.engine -. started);
                          close_spans "committed";
                          Termination.log_outcome term ~site:home ~action
                            ~committed:true;
                          release ()
                        | `Aborted ->
                          close_spans "aborted";
                          Termination.log_outcome term ~site:home ~action
                            ~committed:false;
                          release ()
                        | `Fenced ->
                          (* A takeover lease holder owns the drive now:
                             stop. The intent stays in-doubt at this site
                             until the holder's broadcast (or this site's
                             next recovery) resolves it. *)
                          close_spans "fenced";
                          release ()
                        | `Inconclusive ->
                          let can_retry =
                            tries_left > 0
                            &&
                            (if spend_retry () then true
                             else begin
                               budget_exhausted ();
                               false
                             end)
                          in
                          if can_retry then begin
                            let delay =
                              backoff_delay cfg rng
                                ~attempt:
                                  (cfg.commit_quorum_retries - tries_left)
                            in
                            Engine.schedule st.engine ~delay (fun () ->
                                step (fun () -> drive (tries_left - 1)))
                          end
                          else begin
                            (* In doubt: the commit point is durable but
                               some vote quorum is unreachable. The
                               decision stays open for redrive at
                               recovery, cooperative termination, or the
                               reaper. *)
                            note st ~site:home
                              (Trace.Coop_term
                                 { txn = txname; outcome = "in-doubt" });
                            close_spans "in-doubt";
                            release ()
                          end)
                in
                drive cfg.commit_quorum_retries
              end
          in
          (* Phase 1: every touched object must show a reachable final
             quorum before the decision. *)
          let rec prepare = function
            | [] -> decide ()
            | name :: more ->
              let obj = find_object st name in
              (* Transient quorum loss (a flapping site, a healing
                 partition) need not doom the transaction: re-probe a
                 bounded number of times with backoff before aborting. *)
              let rec probe tries_left =
                Replicated.prepared_sites obj ~from:home
                  ~timeout:(Replicated.rpc_timeout obj) ~k:(fun sites ->
                    step (fun () ->
                        if List.length sites >= Replicated.max_final obj then
                          prepare more
                        else if tries_left > 0 then begin
                          if spend_retry () then begin
                            let delay =
                              backoff_delay cfg rng
                                ~attempt:(cfg.commit_quorum_retries - tries_left)
                            in
                            Engine.schedule st.engine ~delay (fun () ->
                                step (fun () -> probe (tries_left - 1)))
                          end
                          else begin
                            budget_exhausted ();
                            finish_abort `Unavailable
                              ("commit quorum (retry budget): " ^ name)
                          end
                        end
                        else
                          finish_abort `Unavailable ("commit quorum: " ^ name)))
              in
              probe cfg.commit_quorum_retries
          in
          if txn.Txn.touched = [] then begin
            (* Empty transaction: commits vacuously. *)
            let cts = Lamport.tick clock in
            decide_note st ~site:home action ~committed:true;
            txn.Txn.status <- Txn.Committed cts;
            Metrics.incr st.counters.c_committed;
            Metrics.observe st.counters.c_latency (Engine.now st.engine -. started);
            note_session_commit cts;
            finish_commit ()
          end
          else prepare txn.Txn.touched
        in
        do_ops script
      end

(* One admission slot's release, shared by every terminal path of the
   transaction it guards (commit, abort, strand, in-doubt give-up).
   Idempotent — several paths can race to it under kills. Frees the
   in-flight slot, observes the admission→verdict sojourn, and pumps the
   queue so the next waiter starts inside the same event. *)
and make_release st ~arrival =
  let released = ref false in
  fun () ->
    if not !released then begin
      released := true;
      Metrics.observe st.counters.c_sojourn (Engine.now st.engine -. arrival);
      match st.admission_st with
      | None -> ()
      | Some a ->
        a.adm_in_flight <- a.adm_in_flight - 1;
        admission_pump st
    end

(* Drain the admission queue into free slots. Waiters whose deadline
   elapsed while queued are shed here rather than admitted dead. *)
and admission_pump st =
  match st.admission_st with
  | None -> ()
  | Some a ->
    let rec pump () =
      if a.adm_in_flight < a.acfg.max_in_flight then begin
        match a.adm_queue with
        | [] -> ()
        | p :: rest ->
          a.adm_queue <- rest;
          if Engine.now st.engine -. p.p_arrival > a.acfg.deadline then begin
            shed_pending st p ~reason:"deadline";
            pump ()
          end
          else begin
            a.adm_in_flight <- a.adm_in_flight + 1;
            let release = make_release st ~arrival:p.p_arrival in
            exec_txn st p.p_index ~arrival:p.p_arrival ~admitted:(Engine.now st.engine) ~release
          end
      end
    in
    pump ()

(* Client arrival: under admission control the transaction first passes
   the gate — run now if a slot is free, wait in the bounded queue
   otherwise, or be shed per policy when the queue is full. Without
   admission ([cfg.admission = None]) this is a plain dispatch and the
   run is bit-identical to the ungated runtime. *)
and run_txn st index ~arrival =
  Engine.schedule_at st.engine ~time:arrival (fun () ->
      match st.admission_st with
      | None ->
        exec_txn st index ~arrival ~admitted:arrival ~release:(make_release st ~arrival)
      | Some a ->
        let p =
          {
            p_index = index;
            p_arrival = arrival;
            p_class =
              (match st.cfg.load with
               | Some l -> l.class_of index
               | None -> `Write);
          }
        in
        if a.adm_in_flight < a.acfg.max_in_flight && a.adm_queue = [] then begin
          a.adm_in_flight <- a.adm_in_flight + 1;
          let release = make_release st ~arrival in
          exec_txn st index ~arrival ~admitted:arrival ~release
        end
        else if List.length a.adm_queue < a.acfg.queue_limit then
          a.adm_queue <- a.adm_queue @ [ p ]
        else begin
          match a.acfg.adm_shed_policy with
          | Reject_newest -> shed_pending st p ~reason:"queue full"
          | Shed_reads_first -> (
            (* An arriving write may evict the newest queued read;
               arriving reads and writes with no read to evict are shed
               themselves. *)
            match p.p_class with
            | `Read -> shed_pending st p ~reason:"queue full"
            | `Write -> (
              match evict_newest_read a.adm_queue with
              | Some (victim, rest) ->
                shed_pending st victim ~reason:"shed-by-class";
                a.adm_queue <- rest @ [ p ]
              | None -> shed_pending st p ~reason:"queue full"))
        end)

(* Reconstruct the model-ordered history for one object (see interface):
   Begin entries first (Begin-timestamp order), then executions and aborts
   in observed order, then Commit entries in commit-timestamp order, except
   for locking where the observed order is the model order. *)
let model_history st scheme observed =
  match scheme with
  | Replicated.Locking -> observed
  | Replicated.Static | Replicated.Hybrid ->
    let begins =
      List.filter_map
        (function Behavioral.Begin a -> Some a | Behavioral.Exec _ | Behavioral.Commit _ | Behavioral.Abort _ -> None)
        observed
    in
    let begin_ts a =
      match Hashtbl.find_opt st.txns a with
      | Some txn -> txn.Txn.begin_ts
      | None -> Lamport.Timestamp.zero
    in
    let commit_ts a =
      match Hashtbl.find_opt st.txns a with
      | Some { Txn.status = Txn.Committed ts; _ } -> Some ts
      | Some _ | None -> None
    in
    let begins =
      List.sort (fun a b -> Lamport.Timestamp.compare (begin_ts a) (begin_ts b)) begins
    in
    let middles =
      List.filter
        (function
          | Behavioral.Exec _ | Behavioral.Abort _ -> true
          | Behavioral.Begin _ | Behavioral.Commit _ -> false)
        observed
    in
    let commits =
      List.filter_map
        (function
          | Behavioral.Commit a ->
            (match commit_ts a with Some ts -> Some (ts, a) | None -> Some (Lamport.Timestamp.zero, a))
          | Behavioral.Begin _ | Behavioral.Exec _ | Behavioral.Abort _ -> None)
        observed
      |> List.sort (fun (t1, _) (t2, _) -> Lamport.Timestamp.compare t1 t2)
      |> List.map (fun (_, a) -> Behavioral.Commit a)
    in
    List.map (fun a -> Behavioral.Begin a) begins @ middles @ commits

let run_inner cfg =
  let engine = Engine.create ~seed:cfg.seed in
  let net =
    Network.create engine ~n_sites:cfg.n_sites ~latency_mean:cfg.latency_mean
      ~drop_probability:cfg.drop_probability ()
  in
  let objects =
    List.map
      (fun oc ->
        ( oc.obj_name,
          Replicated.create ~name:oc.obj_name ~spec:oc.obj_spec ~scheme:cfg.scheme
            ~relation:oc.obj_relation ~assignment:oc.obj_assignment ~net
            ?members:oc.obj_members ~durability:cfg.durability
            ~rpc_timeout:cfg.rpc_timeout () ))
      cfg.objects
  in
  (match cfg.trace with Some tr -> Network.set_trace net tr | None -> ());
  let registry = Metrics.create () in
  let scheme_l = [ ("scheme", Replicated.scheme_name cfg.scheme) ] in
  let abort_l reason = ("reason", reason) :: scheme_l in
  let st =
    {
      engine;
      net;
      clocks = Array.init cfg.n_sites (fun site -> Lamport.create ~site);
      objects;
      txns = Hashtbl.create 256;
      counters =
        {
          c_committed = Metrics.counter registry ~labels:scheme_l "txn.committed";
          c_aborted = Metrics.counter registry ~labels:scheme_l "txn.aborted";
          c_unavailable =
            Metrics.counter registry ~labels:(abort_l "unavailable") "txn.aborts";
          c_rejected =
            Metrics.counter registry ~labels:(abort_l "rejected") "txn.aborts";
          c_conflict =
            Metrics.counter registry ~labels:(abort_l "conflict") "txn.aborts";
          c_blocked = Metrics.counter registry ~labels:scheme_l "op.blocked_waits";
          c_ops = Metrics.counter registry ~labels:scheme_l "op.done";
          c_latency =
            Metrics.histogram registry ~labels:scheme_l "txn.latency";
          c_deadlock =
            Metrics.counter registry ~labels:(abort_l "deadlock") "txn.aborts";
          c_presumed =
            Metrics.counter registry ~labels:(abort_l "presumed") "txn.aborts";
          c_coop_commit =
            Metrics.counter registry ~labels:scheme_l "term.coop_commits";
          c_coop_abort =
            Metrics.counter registry ~labels:scheme_l "term.coop_aborts";
          c_redrive = Metrics.counter registry ~labels:scheme_l "term.redrives";
          c_orphans =
            Metrics.counter registry ~labels:scheme_l "term.orphans_reaped";
          c_blocked_latency =
            Metrics.histogram registry ~labels:scheme_l "op.blocked_latency";
          c_takeover_lease =
            Metrics.counter registry ~labels:scheme_l "takeover.leases";
          c_takeover_adopt =
            Metrics.counter registry ~labels:scheme_l "takeover.adoptions";
          c_takeover_fenced =
            Metrics.counter registry ~labels:scheme_l "takeover.fenced";
          c_takeover_contended =
            Metrics.counter registry ~labels:scheme_l "takeover.contended";
          c_rebroadcast_suppressed =
            Metrics.counter registry ~labels:scheme_l
              "term.rebroadcasts_suppressed";
          g_stranded_live =
            Metrics.gauge registry ~labels:scheme_l "term.stranded_live";
          c_shed = Metrics.counter registry ~labels:scheme_l "admission.shed";
          c_timely =
            Metrics.counter registry ~labels:scheme_l "runtime.timely_commits";
          c_retries_spent =
            Metrics.counter registry ~labels:scheme_l "runtime.retries_spent";
          c_retry_exhausted =
            Metrics.counter registry ~labels:scheme_l
              "runtime.retries_budget_exhausted";
          c_sojourn =
            Metrics.histogram registry ~labels:scheme_l "admission.sojourn";
          c_breaker_trips =
            Metrics.counter registry ~labels:scheme_l "breaker.trips";
        };
      registry;
      cfg;
      term =
        (match cfg.termination with
         | Termination.Disabled -> None
         | Termination.Presumed_abort_only | Termination.Cooperative ->
           Some (Termination.create ~n_sites:cfg.n_sites ()));
      waits = Waits_for.create ();
      in_termination = Hashtbl.create 16;
      rebroadcasted = Hashtbl.create 16;
      takeover_terms = Hashtbl.create 16;
      counted_stranded = Hashtbl.create 16;
      n_stranded_live = 0;
      admission_st =
        (match cfg.admission with
         | None -> None
         | Some a -> Some { acfg = a; adm_in_flight = 0; adm_queue = [] });
    }
  in
  (* Circuit breaker: a pure state machine fed from the RPC outcome
     listeners and consulted from the network router. It only gates
     [Rpc.call] — status broadcasts and gossip still use [Network.send],
     so abort records reach a tripped site and shed-safety holds. *)
  (match cfg.admission with
   | Some { adm_breaker = Some bc; _ } ->
     let breaker =
       Breaker.create ~window:bc.br_window ~threshold:bc.br_threshold
         ~cooldown:bc.br_cooldown ~probes:bc.br_probes ~n_sites:cfg.n_sites ()
     in
     Breaker.set_transition_hook breaker (fun ~site ~state ->
         if state = Breaker.Open then Metrics.incr st.counters.c_breaker_trips;
         note st ~site
           (Trace.Breaker { site; state = Breaker.state_label state }));
     Network.on_rpc_result net (fun ~src:_ ~dst ~ok ~elapsed:_ ->
         Breaker.record breaker ~site:dst ~now:(Engine.now engine) ~ok);
     Network.set_router net
       (Some
          (fun ~src:_ ~dst ->
            Breaker.allow breaker ~site:dst ~now:(Engine.now engine)))
   | Some { adm_breaker = None; _ } | None -> ());
  (* Fault schedules inject clock skew through the network so they need no
     dependency on the clock layer; the runtime owns the clocks, so it
     supplies the handler. *)
  Network.set_skew_handler net (fun ~site ~amount ->
      Lamport.skew st.clocks.(site) amount);
  (* An amnesiac site may only rejoin once its resync set intersects every
     final quorum that might hold a tentative entry it lost: for final
     quorums of size f on n sites that takes n - f + 1 peers, maximized
     over every operation of every object. *)
  let resync_quorum =
    List.fold_left
      (fun acc oc ->
        List.fold_left
          (fun acc (_, s) ->
            if s.Assignment.final > 0 then
              max acc (cfg.n_sites - s.Assignment.final + 1)
            else acc)
          acc oc.obj_assignment.Assignment.ops)
      0 cfg.objects
  in
  (* [ungated_rejoin] reverts both halves of the amnesia fix (rejoin
     without a resync quorum, commits not re-pushing their entries) so the
     double-dequeue violation can be replayed under tracing for postmortem
     tests. *)
  Network.set_resync_quorum net (if cfg.ungated_rejoin then 0 else resync_quorum);
  if cfg.ungated_rejoin then
    List.iter (fun (_, obj) -> Replicated.set_commit_piggyback obj false) objects;
  (* Recovery redrive: a recovered coordinator replays its decision log and
     re-drives every in-doubt intent to a verdict; transactions homed at
     the site that never reached the commit point cannot have committed
     (the intent is durable-first), so they are presumed aborted. Sorted
     iteration keeps the broadcast order — and hence the draw order —
     independent of hash-table layout. *)
  (match st.term with
   | None -> ()
   | Some term ->
     Network.on_recover net (fun site ->
         let in_doubt = Termination.recover term ~site in
         List.iter
           (fun (action, _touched, cts) ->
             match Hashtbl.find_opt st.txns action with
             | None -> ()
             | Some btxn ->
               Metrics.incr st.counters.c_redrive;
               (match btxn.Txn.status with
                | Txn.Committed _ | Txn.Aborted _ ->
                  let committed =
                    match btxn.Txn.status with
                    | Txn.Committed _ -> true
                    | _ -> false
                  in
                  Termination.log_outcome term ~site ~action ~committed;
                  rebroadcast_status st btxn ~from:site;
                  note st ~site
                    (Trace.Txn_redrive
                       {
                         txn = Action.to_string action;
                         outcome = (if committed then "committed" else "aborted");
                       })
                | Txn.Running | Txn.Committing ->
                  (* A recovered driver — original coordinator or crashed
                     taker — redrives at the implicit term 0 (lease terms
                     are volatile): if a takeover lease holder is active
                     it fences this redrive and keeps sole ownership. *)
                  let my_term = if cfg.takeover then Some 0 else None in
                  drive_commit_votes ?term:my_term st btxn cts ~from:site
                    ~k:(fun verdict ->
                      let outcome =
                        match verdict with
                        | `Committed ->
                          Termination.log_outcome term ~site ~action
                            ~committed:true;
                          "committed"
                        | `Aborted ->
                          Termination.log_outcome term ~site ~action
                            ~committed:false;
                          "aborted"
                        | `Fenced -> "fenced"
                        | `Inconclusive -> "in-doubt"
                      in
                      note st ~site
                        (Trace.Txn_redrive
                           { txn = Action.to_string action; outcome }))))
           in_doubt;
         let no_intent a =
           not (List.exists (fun (a', _, _) -> Action.equal a a') in_doubt)
         in
         Hashtbl.fold
           (fun a btxn acc ->
             match btxn.Txn.status with
             | (Txn.Running | Txn.Committing)
               when btxn.Txn.home_site = site && no_intent a ->
               (a, btxn) :: acc
             | _ -> acc)
           st.txns []
         |> List.sort (fun (a, _) (b, _) -> Action.compare a b)
         |> List.iter (fun (_, btxn) ->
                btxn.Txn.stranded <- true;
                decide_note st ~site btxn.Txn.action ~committed:false;
                ext_finalize st btxn ~from:site
                  (`Abort (`Presumed, "presumed abort")))));
  (* Orphan reaper ([Cooperative] only): periodically sweep every
     repository for tentative entries. Entries of terminal transactions
     get their status records re-pushed; non-terminal transactions whose
     coordinator is gone (or which sit in the in-doubt commit window) get
     a cooperative-termination round. Draws nothing when there is nothing
     to do. *)
  (match cfg.termination with
   | Termination.Disabled | Termination.Presumed_abort_only -> ()
   | Termination.Cooperative ->
     let rec first_up site =
       if site >= cfg.n_sites then None
       else if Network.site_up net site then Some site
       else first_up (site + 1)
     in
     let rec reap () =
       Engine.schedule engine ~delay:cfg.reaper_every (fun () ->
           (match first_up 0 with
            | None -> ()
            | Some origin ->
              let seen = Hashtbl.create 16 in
              List.iter
                (fun (name, obj) ->
                  List.iter
                    (fun site ->
                      let view =
                        View.classify (Replicated.repository_log obj ~site)
                      in
                      List.iter
                        (fun (e : Log.entry) ->
                          if not (Hashtbl.mem seen e.Log.action) then
                            Hashtbl.replace seen e.Log.action name)
                        view.View.tentative)
                    (Epoch.members (Replicated.current_epoch obj)))
                st.objects;
              let resolved = ref 0 in
              Hashtbl.fold (fun a name acc -> (a, name) :: acc) seen []
              |> List.sort (fun (a, _) (b, _) -> Action.compare a b)
              |> List.iter (fun (a, target) ->
                     match Hashtbl.find_opt st.txns a with
                     | None -> ()
                     | Some btxn -> (
                       match btxn.Txn.status with
                       | Txn.Committed _ | Txn.Aborted _ ->
                         incr resolved;
                         Metrics.incr st.counters.c_orphans;
                         rebroadcast_status st btxn ~from:origin
                       | Txn.Committing ->
                         (* In the in-doubt commit window: resolve it. *)
                         cooperative_terminate st btxn target ~from:origin
                       | Txn.Running ->
                         if
                           btxn.Txn.stranded
                           || not
                                (Network.reachable net origin
                                   btxn.Txn.home_site)
                         then cooperative_terminate st btxn target ~from:origin));
              if !resolved > 0 then
                note st ~site:origin
                  (Trace.Orphan_gc { site = origin; resolved = !resolved }));
           reap ())
     in
     reap ());
  cfg.install_faults net;
  (* Split gossip streams unconditionally so the workload's draws are the
     same whether or not anti-entropy runs. *)
  List.iter
    (fun (_, obj) ->
      let gossip_rng = Rng.split (Engine.rng engine) in
      match cfg.anti_entropy_every with
      | Some every -> Replicated.start_anti_entropy obj ~rng:gossip_rng ~every
      | None -> ())
    objects;
  (* Reconfiguration coordinator: a failure detector feeds a periodic
     check; when a current member is suspected dead, the policy proposes a
     new (member set, assignment) over the live view and the handoff runs
     through Replicated.reconfigure. The detector draws from its own split
     stream for the same reason gossip does: toggling reconfiguration must
     not perturb the workload's draws. *)
  let rc_done = Metrics.counter registry ~labels:scheme_l "reconfig.done" in
  let rc_refused = Metrics.counter registry ~labels:scheme_l "reconfig.refused" in
  let rc_failed = Metrics.counter registry ~labels:scheme_l "reconfig.failed" in
  let rc_lat = Metrics.histogram registry ~labels:scheme_l "reconfig.latency" in
  let c_hedges = Metrics.counter registry ~labels:scheme_l "gray.hedges" in
  let c_hedge_wins = Metrics.counter registry ~labels:scheme_l "gray.hedge_wins" in
  let c_hedge_late = Metrics.counter registry ~labels:scheme_l "gray.hedge_late" in
  let c_demoted =
    Metrics.counter registry ~labels:scheme_l "gray.demoted_rounds"
  in
  (* Scripted fail-slow injections: persistent service-time inflation armed
     at each entry's onset. Empty by default, so the legacy event timeline
     is untouched. *)
  List.iter
    (fun (site, onset, mode) ->
      Engine.schedule_at engine ~time:onset (fun () ->
          Network.set_fail_slow net ~site mode))
    cfg.fail_slow;
  (* Failure detector, shared by the reconfiguration coordinator (binary
     suspicion) and the gray-failure layer (latency scoring). It draws from
     its own split stream for the same reason gossip does: toggling either
     consumer must not perturb the workload's draws — exactly one split is
     consumed here whether zero, one, or both are enabled. *)
  let detector = ref None in
  (match (cfg.reconfig, cfg.gray) with
   | None, None -> ignore (Rng.split (Engine.rng engine))
   | reconfig, gray ->
     let det_rng = Rng.split (Engine.rng engine) in
     let rc = Option.value reconfig ~default:default_reconfig in
     detector :=
       Some
         (Detector.start net ~rng:det_rng ~probe_every:rc.probe_every
            ~timeout:rc.probe_timeout ~suspect_after:rc.suspect_after
            ~monitor:rc.monitor
            ?slow:(Option.map (fun gc -> gc.slow) gray)
            ()));
  (* Gray-failure mitigation: install the routing/hedging hooks on every
     object. Routing drops slow-suspected members from a round's primaries
     (never below its quorum floor); members routed out are the hedge
     spares of last resort. *)
  (match (cfg.gray, !detector) with
   | Some gc, Some det ->
     (* Per-site latency histograms mirrored into the registry — the same
        samples the detector's books score. *)
     let site_lat =
       Array.init cfg.n_sites (fun site ->
           Metrics.histogram registry
             ~labels:(("site", string_of_int site) :: scheme_l)
             "rpc.site_latency")
     in
     Network.on_rpc_result net (fun ~src:_ ~dst ~ok:_ ~elapsed ->
         if dst >= 0 && dst < cfg.n_sites then
           Metrics.observe site_lat.(dst) elapsed);
     let h_delay () =
       match Detector.latency_percentile det ~q:gc.hedge_percentile with
       | Some p -> Float.max gc.hedge_delay_floor p
       | None ->
         (* No samples yet: a few mean network hops is the only prior. *)
         Float.max gc.hedge_delay_floor (4.0 *. cfg.latency_mean)
     in
     let route ~op:_ ~floor ~members =
       let dsts =
         if gc.demote then begin
           let fast =
             List.filter (fun s -> not (Detector.slow_suspected det s)) members
           in
           if List.length fast = List.length members then members
           else if List.length fast >= floor then begin
             Metrics.incr c_demoted;
             fast
           end
           else members (* too few fast sites: a slow quorum beats none *)
         end
         else members
       in
       (* Routing never narrows below the full fast set — standing
          redundancy beats a reserved spare. Hedged re-issues go first to
          primaries still lacking a reply (a fresh send re-rolls the
          straggling link); demoted members are the spares of last resort,
          least-suspect first. *)
       let spares =
         List.filter (fun s -> not (List.mem s dsts)) members
         |> List.map (fun s -> (Detector.slow_score det s, s))
         |> List.sort compare |> List.map snd
       in
       let hedge =
         if gc.hedge then
           Some
             {
               Rpc.h_delay;
               h_spares = spares;
               h_max = gc.hedge_max;
               h_on_hedge = (fun ~dst:_ -> Metrics.incr c_hedges);
               h_on_win = (fun ~dst:_ -> Metrics.incr c_hedge_wins);
             }
         else None
       in
       (dsts, hedge)
     in
     List.iter
       (fun (_, obj) ->
         Replicated.set_gray obj
           (Some
              {
                Replicated.g_route = route;
                g_early = gc.hedge;
                g_on_late = Some (fun ~dst:_ ~ok:_ -> Metrics.incr c_hedge_late);
              }))
       objects
   | _ -> ());
  (match cfg.reconfig with
   | None -> ()
   | Some rc ->
     let det =
       match !detector with Some d -> d | None -> assert false
     in
     let in_flight = ref false in
     let last_done = ref (-.rc.cooldown) in
     let consider (_, obj) =
       if
         (not !in_flight)
         && Network.site_up net rc.monitor
         && Engine.now engine -. !last_done >= rc.cooldown
       then begin
         let live = Detector.live det in
         (* Demotion handoff: a site slow-suspected past the grace period
            is as good as down for planning purposes — exclude it from the
            live view so Reassign proposes quorums off it. Reconfigure
            itself still refuses the handoff under static atomicity
            (Theorems 10–12), so this only ever takes effect where the
            scheme permits reassignment. *)
         let live =
           match cfg.gray with
           | Some gc when gc.demote ->
             List.filter
               (fun s ->
                 match Detector.slow_since det s with
                 | Some t0 -> Engine.now engine -. t0 < gc.demote_grace
                 | None -> true)
               live
           | _ -> live
         in
         let members = Epoch.members (Replicated.current_epoch obj) in
         if List.exists (fun s -> not (List.mem s live)) members then begin
           let plan =
             match rc.plan_override with
             | Some f -> f ~live ~n_sites:cfg.n_sites
             | None ->
               Reassign.plan ~live ~ops:(Replicated.ops obj)
                 ~constraints:(Replicated.constraints obj) ~p:rc.assume_p
                 ~mix:rc.mix ()
           in
           match plan with
           | None -> () (* no satisfying assignment: keep the old epoch *)
           | Some (members', _) when members' = members -> ()
           | Some (members', assignment') ->
             in_flight := true;
             let t0 = Engine.now engine in
             Replicated.reconfigure obj ~members:members' ~assignment:assignment'
               ~allow_barrier:rc.allow_barrier
               ~unsafe_no_barrier:rc.unsafe_no_barrier ~from:rc.monitor
               (fun result ->
                 in_flight := false;
                 last_done := Engine.now engine;
                 match result with
                 | Replicated.Reconfigured _ ->
                   Metrics.incr rc_done;
                   Metrics.observe rc_lat (Engine.now engine -. t0)
                 | Replicated.Refused _ -> Metrics.incr rc_refused
                 | Replicated.Failed _ -> Metrics.incr rc_failed)
         end
       end
     in
     let rec check () =
       Engine.schedule engine ~delay:rc.check_every (fun () ->
           List.iter consider objects;
           check ())
     in
     check ());
  (* Time-series sampler: a recurring engine event polling the hot
     counters into sim-time windows. It draws no RNG and re-arms only
     while other work is pending, so committed counts and event order are
     bit-for-bit identical with the sampler on or off — extra heap entries
     shift absolute sequence numbers but never the relative order of the
     workload's own events. *)
  if Timeseries.enabled cfg.timeseries then begin
    let ts = cfg.timeseries in
    let s_committed = Timeseries.series ts ~agg:Timeseries.Sum "committed"
    and s_aborted = Timeseries.series ts ~agg:Timeseries.Sum "aborted"
    and s_blocked = Timeseries.series ts ~agg:Timeseries.Sum "blocked_waits"
    and s_wal = Timeseries.series ts ~agg:Timeseries.Sum "wal_flushes"
    and s_msgs = Timeseries.series ts ~agg:Timeseries.Sum "msgs_sent"
    and s_queue = Timeseries.series ts ~agg:Timeseries.Max "queue_depth"
    and s_stranded = Timeseries.series ts ~agg:Timeseries.Last "stranded_live"
    and s_shed = Timeseries.series ts ~agg:Timeseries.Sum "shed"
    and s_timely = Timeseries.series ts ~agg:Timeseries.Sum "timely_commits"
    and s_retries = Timeseries.series ts ~agg:Timeseries.Sum "retries_spent" in
    let last_committed = ref 0
    and last_aborted = ref 0
    and last_blocked = ref 0
    and last_wal = ref 0
    and last_msgs = ref 0
    and last_shed = ref 0
    and last_timely = ref 0
    and last_retries = ref 0 in
    let wal_flushes_now () =
      List.fold_left
        (fun acc (_, obj) ->
          match Replicated.wal_totals obj with
          | None -> acc
          | Some s -> acc + s.Atomrep_store.Wal.flushes)
        0 objects
    in
    let interval = Timeseries.width ts /. 2.0 in
    let rec tick () =
      Engine.schedule engine ~delay:interval (fun () ->
          let now = Engine.now engine in
          let delta s last v =
            Timeseries.observe ts s ~now (float_of_int (v - !last));
            last := v
          in
          delta s_committed last_committed (Metrics.read st.counters.c_committed);
          delta s_aborted last_aborted (Metrics.read st.counters.c_aborted);
          delta s_blocked last_blocked (Metrics.read st.counters.c_blocked);
          delta s_wal last_wal (wal_flushes_now ());
          delta s_msgs last_msgs (Network.stats net).Network.sent;
          delta s_shed last_shed (Metrics.read st.counters.c_shed);
          delta s_timely last_timely (Metrics.read st.counters.c_timely);
          delta s_retries last_retries (Metrics.read st.counters.c_retries_spent);
          Timeseries.observe ts s_queue ~now
            (float_of_int (Engine.pending engine));
          Timeseries.observe ts s_stranded ~now
            (float_of_int st.n_stranded_live);
          if Engine.pending engine > 0 then tick ())
    in
    tick ()
  end;
  (match cfg.load with
   | None ->
     (* Closed-form Poisson process: the legacy draw sequence. *)
     let rng = Engine.rng engine in
     let arrival = ref 0.0 in
     for i = 0 to cfg.n_txns - 1 do
       arrival := !arrival +. Rng.exponential rng cfg.arrival_mean;
       run_txn st i ~arrival:!arrival
     done
   | Some load ->
     (* Open-loop plan: arrivals are precomputed (independent of this
        engine's RNG), so offered load never adapts to system state. *)
     let n = min cfg.n_txns (Array.length load.arrivals) in
     for i = 0 to n - 1 do
       run_txn st i ~arrival:load.arrivals.(i)
     done);
  Engine.run ~until:cfg.horizon engine;
  Timeseries.finish cfg.timeseries ~now:(Engine.now engine);
  (match !detector with Some d -> Detector.stop d | None -> ());
  (* End-of-run fairness signal: the liveness monitors only indict an
     unresolved obligation when the final network state shows fairness held
     (everything healed, everybody up) — a stranded op behind a permanent
     kill is vacuous, not a violation. *)
  note st ~site:(-1)
    (Trace.Quiesce
       {
         up = List.length (Network.up_sites net);
         n_sites = cfg.n_sites;
         partitioned = Network.partitioned net;
       });
  let ns = Network.stats net in
  (* Mirror the network's counters and the run-level facts into the
     registry so one JSON export carries everything. *)
  let g name v = Metrics.set (Metrics.gauge registry name) v in
  g "net.sent" (float_of_int ns.Network.sent);
  g "net.dropped" (float_of_int ns.Network.dropped);
  g "net.duplicated" (float_of_int ns.Network.duplicated);
  g "net.dead_dest" (float_of_int ns.Network.dead_dest);
  g "net.rpc_timeouts" (float_of_int ns.Network.rpc_timeouts);
  g "sim.duration" (Engine.now engine);
  let suspicion_transitions =
    match !detector with Some d -> Detector.transitions d | None -> 0
  in
  g "detector.transitions" (float_of_int suspicion_transitions);
  let slow_suspicions =
    match !detector with Some d -> Detector.slow_transitions d | None -> 0
  in
  g "detector.slow_transitions" (float_of_int slow_suspicions);
  let final_epoch =
    List.fold_left
      (fun acc (_, obj) -> max acc (Epoch.number (Replicated.current_epoch obj)))
      0 objects
  in
  g "epoch.final" (float_of_int final_epoch);
  (* Durability: WAL counters summed over objects, plus one observation per
     recovery into the replay-length and modeled-cost histograms. *)
  let module Wal = Atomrep_store.Wal in
  let wal_flushes = ref 0
  and wal_flushed_records = ref 0
  and wal_lost_flushes = ref 0
  and wal_full_rejections = ref 0
  and wal_torn_writes = ref 0
  and wal_rotted = ref 0
  and wal_checkpoints = ref 0 in
  List.iter
    (fun (_, obj) ->
      match Replicated.wal_totals obj with
      | None -> ()
      | Some s ->
        wal_flushes := !wal_flushes + s.Wal.flushes;
        wal_flushed_records := !wal_flushed_records + s.Wal.flushed_records;
        wal_lost_flushes := !wal_lost_flushes + s.Wal.lost_flushes;
        wal_full_rejections := !wal_full_rejections + s.Wal.full_rejections;
        wal_torn_writes := !wal_torn_writes + s.Wal.torn_writes;
        wal_rotted := !wal_rotted + s.Wal.rotted;
        wal_checkpoints := !wal_checkpoints + s.Wal.checkpoints)
    objects;
  g "wal.flushes" (float_of_int !wal_flushes);
  g "wal.flushed_records" (float_of_int !wal_flushed_records);
  g "wal.lost_flushes" (float_of_int !wal_lost_flushes);
  g "wal.full_rejections" (float_of_int !wal_full_rejections);
  g "wal.torn_writes" (float_of_int !wal_torn_writes);
  g "wal.rotted" (float_of_int !wal_rotted);
  g "wal.checkpoints" (float_of_int !wal_checkpoints);
  g "storage.faults" (float_of_int ns.Network.storage_faults);
  (* Termination: how many tentative entries are still unresolved at the
     horizon (orphans the protocol failed — or was not allowed — to
     reap), and how many decision-log flushes the commit points cost. *)
  let stranded_entries =
    List.fold_left
      (fun acc (_, obj) ->
        List.fold_left
          (fun acc site ->
            acc
            + List.length
                (View.classify (Replicated.repository_log obj ~site))
                  .View.tentative)
          acc
          (Epoch.members (Replicated.current_epoch obj)))
      0 objects
  in
  g "term.stranded_entries" (float_of_int stranded_entries);
  let decision_log_writes =
    match st.term with Some t -> Termination.writes t | None -> 0
  in
  g "term.decision_log_writes" (float_of_int decision_log_writes);
  let all_recoveries =
    List.concat_map (fun (_, obj) -> Replicated.recoveries obj) objects
  in
  let recoveries_corrupt =
    List.length (List.filter (fun r -> r.Repository.r_corrupt) all_recoveries)
  in
  g "recovery.count" (float_of_int (List.length all_recoveries));
  g "recovery.corrupt" (float_of_int recoveries_corrupt);
  let replay_h = Metrics.histogram registry ~labels:scheme_l "recovery.replay" in
  let cost_h = Metrics.histogram registry ~labels:scheme_l "recovery.cost_ms" in
  List.iter
    (fun r ->
      Metrics.observe replay_h (float_of_int r.Repository.r_replayed);
      Metrics.observe cost_h r.Repository.r_cost_ms)
    all_recoveries;
  (* Per-span-kind latency breakdowns, from the trace's closed spans. *)
  (match cfg.trace with
   | Some tr ->
     List.iter
       (fun (label, s) ->
         let h = Metrics.histogram registry ~labels:scheme_l ("span." ^ label) in
         List.iter (Metrics.observe h) (Summary.observations s))
       (Trace.span_durations tr)
   | None -> ());
  let cv labels name = Metrics.counter_value registry ~labels name in
  let metrics =
    {
      committed = cv scheme_l "txn.committed";
      aborted = cv scheme_l "txn.aborted";
      unavailable_aborts = cv (abort_l "unavailable") "txn.aborts";
      rejected_aborts = cv (abort_l "rejected") "txn.aborts";
      conflict_aborts = cv (abort_l "conflict") "txn.aborts";
      blocked_waits = cv scheme_l "op.blocked_waits";
      ops_done = cv scheme_l "op.done";
      txn_latency = Metrics.histogram_summary registry ~labels:scheme_l "txn.latency";
      duration = Engine.now engine;
      msgs_sent = ns.Network.sent;
      msgs_dropped = ns.Network.dropped;
      msgs_duplicated = ns.Network.duplicated;
      msgs_dead_dest = ns.Network.dead_dest;
      rpc_timeouts = ns.Network.rpc_timeouts;
      reconfigs = cv scheme_l "reconfig.done";
      reconfigs_refused = cv scheme_l "reconfig.refused";
      reconfigs_failed = cv scheme_l "reconfig.failed";
      reconfig_latency =
        Metrics.histogram_summary registry ~labels:scheme_l "reconfig.latency";
      suspicion_transitions;
      final_epoch;
      recoveries = List.length all_recoveries;
      recoveries_corrupt;
      recovery_replay =
        Metrics.histogram_summary registry ~labels:scheme_l "recovery.replay";
      recovery_cost =
        Metrics.histogram_summary registry ~labels:scheme_l "recovery.cost_ms";
      wal_flushes = !wal_flushes;
      wal_flushed_records = !wal_flushed_records;
      wal_lost_flushes = !wal_lost_flushes;
      wal_full_rejections = !wal_full_rejections;
      wal_torn_writes = !wal_torn_writes;
      wal_rotted = !wal_rotted;
      wal_checkpoints = !wal_checkpoints;
      storage_faults = ns.Network.storage_faults;
      coop_commits = cv scheme_l "term.coop_commits";
      coop_aborts = cv scheme_l "term.coop_aborts";
      presumed_aborts = cv (abort_l "presumed") "txn.aborts";
      deadlock_aborts = cv (abort_l "deadlock") "txn.aborts";
      redrives = cv scheme_l "term.redrives";
      orphans_reaped = cv scheme_l "term.orphans_reaped";
      stranded_entries;
      decision_log_writes;
      blocked_latency =
        Metrics.histogram_summary registry ~labels:scheme_l "op.blocked_latency";
      takeover_leases = cv scheme_l "takeover.leases";
      takeover_adoptions = cv scheme_l "takeover.adoptions";
      takeover_fenced = cv scheme_l "takeover.fenced";
      takeover_contended = cv scheme_l "takeover.contended";
      rebroadcasts_suppressed = cv scheme_l "term.rebroadcasts_suppressed";
      stranded_live = st.n_stranded_live;
      shed = cv scheme_l "admission.shed";
      timely_commits = cv scheme_l "runtime.timely_commits";
      retries_spent = cv scheme_l "runtime.retries_spent";
      retries_budget_exhausted =
        cv scheme_l "runtime.retries_budget_exhausted";
      sojourn =
        Metrics.histogram_summary registry ~labels:scheme_l "admission.sojourn";
      breaker_trips = cv scheme_l "breaker.trips";
      hedges = cv scheme_l "gray.hedges";
      hedge_wins = cv scheme_l "gray.hedge_wins";
      hedge_late = cv scheme_l "gray.hedge_late";
      demoted_rounds = cv scheme_l "gray.demoted_rounds";
      slow_suspicions;
    }
  in
  let histories =
    List.map
      (fun (name, obj) -> (name, model_history st cfg.scheme (Replicated.history obj)))
      objects
  in
  { metrics; histories; registry }

(* Install the run's profile as the ambient one only when it is enabled:
   a disabled profile must not mask an outer ambient profile (e.g. a
   campaign profiling its runs from the CLI). *)
let run cfg =
  if Profile.enabled cfg.profile then
    Profile.with_current cfg.profile (fun () -> run_inner cfg)
  else run_inner cfg

let spec_of (cfg : config) name =
  let oc = List.find (fun oc -> String.equal oc.obj_name name) cfg.objects in
  oc.obj_spec

(* Exhaustive local-atomicity checking is exponential in the number of
   active (uncommitted) actions and, for the dynamic property, in the
   committed actions as well; histories from moderate runs end with few
   actives, and locking runs fall back to commit-order serializability
   (which two-phase locking guarantees and which implies a consistent
   global order) when the full dynamic check would blow up. *)
let check_atomicity (cfg : config) outcome =
  let module A = Atomrep_atomicity.Atomicity in
  List.filter_map
    (fun (name, history) ->
      let spec = spec_of cfg name in
      let committed = List.length (Behavioral.committed history) in
      let result =
        match cfg.scheme with
        | Replicated.Static -> A.check spec A.Static history
        | Replicated.Hybrid -> A.check spec A.Hybrid history
        | Replicated.Locking ->
          if committed <= 7 then A.check spec A.Dynamic history
          else begin
            (* Commit-order serializability for large locking histories. *)
            let h = Behavioral.strip_aborted history in
            let order = Behavioral.committed h in
            let serial = Behavioral.serialize h order in
            if Serial_spec.legal spec serial then Ok ()
            else
              Error
                {
                  A.order;
                  serial;
                  reason = "commit-order serialization illegal";
                }
          end
      in
      match result with
      | Ok () -> None
      | Error f -> Some (name, Format.asprintf "%a" A.pp_failure f))
    outcome.histories

let check_common_order (cfg : config) outcome =
  (* The system-wide serialization order is the Begin-timestamp order for
     static atomicity and the Commit order (commit timestamps; observed
     commit order for locking) otherwise. Both are total orders shared by
     every object, so the system is atomic iff each object's committed
     subhistory is legal when serialized in it. *)
  List.filter_map
    (fun (name, history) ->
      let spec = spec_of cfg name in
      let h = Behavioral.strip_aborted history in
      let committed = Behavioral.committed h in
      let order =
        match cfg.scheme with
        | Replicated.Hybrid | Replicated.Locking -> committed
        | Replicated.Static ->
          (* Begin-entry order in the reconstructed history is the
             Begin-timestamp order. *)
          List.filter
            (fun a -> List.exists (Action.equal a) committed)
            (Behavioral.begin_order h)
      in
      let serial = Behavioral.serialize h order in
      if Serial_spec.legal spec serial then None
      else Some (name, "committed subhistory illegal in system-wide order"))
    outcome.histories
